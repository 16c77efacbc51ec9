package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"weblint/internal/fetch"
)

const section42 = `<HTML>
<HEAD>
<TITLE>example page
</HEAD>
<BODY BGCOLOR="fffff" TEXT=#00ff00>
<H1>My Example</H2>
Click <B><A HREF="a.html>here</B></A>
for more details.
</BODY>
</HTML>
`

// runCLI invokes the command main loop with isolated streams and no rc
// files.
func runCLI(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSection42CLIOutput reproduces the paper's example run,
// end-to-end through the command-line tool with -s.
func TestSection42CLIOutput(t *testing.T) {
	path := writeTemp(t, "test.html", section42)
	code, out, _ := runCLI(t, "", "-norc", "-s", path)
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (problems found)", code)
	}
	want := []string{
		"line 1: first element was not DOCTYPE specification",
		"line 4: no closing </TITLE> seen for <TITLE> on line 3",
		`line 5: value for attribute TEXT (#00ff00) of element BODY should be quoted (i.e. TEXT="#00ff00")`,
		"line 5: illegal value for BGCOLOR attribute of BODY (fffff)",
		"line 6: malformed heading - open tag is <H1>, but closing is </H2>",
		`line 7: odd number of quotes in element <A HREF="a.html>`,
		"line 7: </B> on line 7 seems to overlap <A>, opened on line 7.",
	}
	got := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d lines:\n%s", len(got), out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %q\n want %q", i, got[i], want[i])
		}
	}
}

func TestDefaultLintStyle(t *testing.T) {
	path := writeTemp(t, "test.html", section42)
	_, out, _ := runCLI(t, "", "-norc", path)
	if !strings.Contains(out, path+"(1): first element was not DOCTYPE") {
		t.Errorf("lint-style output missing: %s", out)
	}
}

func TestTerseOutput(t *testing.T) {
	path := writeTemp(t, "test.html", section42)
	_, out, _ := runCLI(t, "", "-norc", "-t", path)
	if !strings.Contains(out, path+":1:doctype-first") {
		t.Errorf("terse output missing: %s", out)
	}
}

func TestCleanFileExitsZero(t *testing.T) {
	clean := "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE>" +
		"<META NAME=\"description\" CONTENT=\"d\"><META NAME=\"keywords\" CONTENT=\"k\">" +
		"</HEAD><BODY><P>fine</P></BODY></HTML>\n"
	path := writeTemp(t, "clean.html", clean)
	code, out, stderr := runCLI(t, "", "-norc", path)
	if code != 0 || out != "" {
		t.Errorf("code=%d out=%q err=%q", code, out, stderr)
	}
}

// TestStdinDash: "-" checks stdin, and its messages are named "-".
func TestStdinDash(t *testing.T) {
	code, out, _ := runCLI(t, section42, "-norc", "-t", "-")
	if code != 1 {
		t.Errorf("exit code = %d", code)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 || lines[0] != "-:1:doctype-first" {
		t.Errorf("stdin output = %q, want the 7 section 4.2 findings named -", out)
	}
}

// TestStdinReadError: a failing stdin read is an operational error
// (exit 2), and nothing read before the failure is checked.
func TestStdinReadError(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-norc", "-"}, &failReader{data: []byte(section42)}, &out, &errb)
	if code != 2 || !strings.Contains(errb.String(), "reading stdin") {
		t.Errorf("code = %d, stderr = %q; want 2 and the read error", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("partial stdin was checked: %q", out.String())
	}
}

// failReader returns its data, then fails.
type failReader struct{ data []byte }

func (f *failReader) Read(p []byte) (int, error) {
	if len(f.data) > 0 {
		n := copy(p, f.data)
		f.data = f.data[n:]
		return n, nil
	}
	return 0, os.ErrClosed
}

func TestEnableDisableFlags(t *testing.T) {
	path := writeTemp(t, "t.html", section42)
	_, out, _ := runCLI(t, "", "-norc", "-d", "doctype-first,odd-quotes", "-s", path)
	if strings.Contains(out, "DOCTYPE") || strings.Contains(out, "odd number of quotes") {
		t.Errorf("disabled messages still present: %s", out)
	}
	_, out2, _ := runCLI(t, "", "-norc", "-e", "here-anchor", "-s", path)
	if !strings.Contains(out2, "content-free") {
		t.Errorf("enabled here-anchor missing: %s", out2)
	}
}

func TestPedanticFlag(t *testing.T) {
	path := writeTemp(t, "t.html", section42)
	_, normal, _ := runCLI(t, "", "-norc", "-s", path)
	_, pedantic, _ := runCLI(t, "", "-norc", "-pedantic", "-s", path)
	if len(strings.Split(pedantic, "\n")) <= len(strings.Split(normal, "\n")) {
		t.Error("pedantic mode did not add messages")
	}
}

func TestUnknownWarningIDErrors(t *testing.T) {
	path := writeTemp(t, "t.html", section42)
	code, _, stderr := runCLI(t, "", "-norc", "-e", "no-such-warning", path)
	if code != 2 || !strings.Contains(stderr, "no-such-warning") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

func TestConfigFileFlag(t *testing.T) {
	rc := writeTemp(t, "rc", "disable doctype-first\nset output-style terse\n")
	page := writeTemp(t, "t.html", section42)
	_, out, _ := runCLI(t, "", "-f", rc, page)
	if strings.Contains(out, "doctype-first") {
		t.Error("rc disable ignored")
	}
	if !strings.Contains(out, ":5:body-colors") {
		t.Errorf("rc output-style ignored: %s", out)
	}
}

func TestHTMLVersionFlag(t *testing.T) {
	page := writeTemp(t, "t.html",
		"<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><SPAN>x</SPAN></BODY></HTML>")
	_, out, _ := runCLI(t, "", "-norc", "-V", "3.2", "-s", page)
	if !strings.Contains(out, "unknown element <SPAN>") {
		t.Errorf("3.2 checking missing: %s", out)
	}
	code, _, stderr := runCLI(t, "", "-norc", "-V", "9.9", page)
	if code != 2 || !strings.Contains(stderr, "9.9") {
		t.Errorf("bad version: code=%d stderr=%q", code, stderr)
	}
}

func TestExtensionFlag(t *testing.T) {
	page := writeTemp(t, "t.html",
		"<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE>"+
			"<META NAME=\"description\" CONTENT=\"d\"><META NAME=\"keywords\" CONTENT=\"k\">"+
			"</HEAD><BODY><BLINK>x</BLINK></BODY></HTML>")
	code, out, _ := runCLI(t, "", "-norc", "-s", page)
	if code != 1 || !strings.Contains(out, "Netscape") {
		t.Errorf("extension warning missing: %s", out)
	}
	code2, out2, _ := runCLI(t, "", "-norc", "-x", "netscape", page)
	if code2 != 0 {
		t.Errorf("with -x netscape: code=%d out=%q", code2, out2)
	}
}

func TestListFlag(t *testing.T) {
	code, out, _ := runCLI(t, "", "-norc", "-l")
	if code != 0 {
		t.Errorf("code = %d", code)
	}
	for _, want := range []string{"doctype-first", "element-overlap", "here-anchor", "enabled", "disabled"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRecurseFlag(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	clean := "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE>" +
		"<META NAME=\"description\" CONTENT=\"d\"><META NAME=\"keywords\" CONTENT=\"k\">" +
		"</HEAD><BODY><A HREF=\"/sub/page.html\">next</A></BODY></HTML>\n"
	if err := os.WriteFile(filepath.Join(dir, "index.html"), []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "page.html"), []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	// Without -R a directory is rejected.
	code, _, stderr := runCLI(t, "", "-norc", dir)
	if code != 2 || !strings.Contains(stderr, "-R") {
		t.Errorf("directory without -R: code=%d stderr=%q", code, stderr)
	}
	// With -R the site is checked; sub has no index file.
	code, out, _ := runCLI(t, "", "-norc", "-R", "-s", dir)
	if code != 1 {
		t.Errorf("code = %d", code)
	}
	if !strings.Contains(out, "does not have an index file") {
		t.Errorf("-R output missing index warning: %s", out)
	}
}

func TestURLMode(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		_, _ = io.WriteString(w, section42)
	}))
	defer srv.Close()

	code, out, _ := runCLI(t, "", "-norc", "-u", "-s", srv.URL+"/page.html")
	if code != 1 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(out, "line 1: first element was not DOCTYPE") {
		t.Errorf("URL mode output = %q", out)
	}
}

// TestURLModeBodyCap: -u refuses a body over the fetch size cap with
// exit 2 instead of checking it or a truncated prefix.
func TestURLModeBodyCap(t *testing.T) {
	body := section42 + strings.Repeat(" ", int(fetch.New(fetch.Options{}).MaxBody())+1-len(section42))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	defer srv.Close()

	code, out, stderr := runCLI(t, "", "-norc", "-u", srv.URL+"/big.html")
	if code != 2 || !strings.Contains(stderr, fetch.ErrBodyTooLarge.Error()) {
		t.Errorf("code = %d, stderr = %q; want 2 and the size-limit error", code, stderr)
	}
	if out != "" {
		t.Errorf("over-cap body was checked: %q", out)
	}
}

func TestVersionFlag(t *testing.T) {
	code, out, _ := runCLI(t, "", "-version")
	if code != 0 || !strings.Contains(out, "weblint") {
		t.Errorf("version: code=%d out=%q", code, out)
	}
}

func TestNoArgsUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "", "-norc")
	if code != 2 || !strings.Contains(stderr, "usage") {
		t.Errorf("no args: code=%d stderr=%q", code, stderr)
	}
}

func TestMissingFileError(t *testing.T) {
	code, _, stderr := runCLI(t, "", "-norc", "/nonexistent/file.html")
	if code != 2 || stderr == "" {
		t.Errorf("missing file: code=%d", code)
	}
}

// TestBatchMultiFile checks the -j batch path: many files on the
// command line produce exactly the output of checking them one at a
// time, in argument order, for any worker count.
func TestBatchMultiFile(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 12; i++ {
		p := filepath.Join(dir, fmt.Sprintf("p%02d.html", i))
		if err := os.WriteFile(p, []byte(section42), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	_, want, _ := runCLI(t, "", append([]string{"-norc", "-t", "-j", "1"}, paths...)...)
	if want == "" {
		t.Fatal("sequential run produced no output")
	}
	for _, j := range []string{"0", "4", "32"} {
		code, out, stderr := runCLI(t, "", append([]string{"-norc", "-t", "-j", j}, paths...)...)
		if code != 1 {
			t.Errorf("-j %s: code=%d stderr=%q", j, code, stderr)
		}
		if out != want {
			t.Errorf("-j %s output differs from sequential run", j)
		}
	}
}

// TestBatchErrorMidRun: a failing document mid-batch reports earlier
// documents' messages, then the error, with exit 2 — like the
// sequential path — and cancels the rest of the batch. URL mode is
// used because URL jobs always take the engine path (file jobs that
// fail os.Stat fall back to the sequential loop by design).
func TestBatchErrorMidRun(t *testing.T) {
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		if strings.HasPrefix(r.URL.Path, "/bad") {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		_, _ = io.WriteString(w, section42)
	}))
	defer srv.Close()

	args := []string{"-norc", "-t", "-j", "2", srv.URL + "/ok", srv.URL + "/bad"}
	for i := 0; i < 30; i++ {
		args = append(args, fmt.Sprintf("%s/p%d", srv.URL, i))
	}
	code, out, stderr := runCLI(t, "", append([]string{"-u"}, args...)...)
	if code != 2 {
		t.Errorf("code = %d, want 2 (stderr=%q)", code, stderr)
	}
	if !strings.Contains(stderr, "/bad") {
		t.Errorf("stderr does not name the failing URL: %q", stderr)
	}
	// The first URL's messages were reported before the failure.
	if !strings.Contains(out, srv.URL+"/ok:1:doctype-first") {
		t.Errorf("messages before the failing URL missing: %q", out)
	}
	// The error cancelled the batch: far fewer than all 32 URLs were
	// ever requested.
	if n := served.Load(); n > 16 {
		t.Errorf("%d URLs fetched after a mid-batch error cancelled the run", n)
	}
}

// TestURLModeSequentialDefault: without -j, URL batches run one fetch
// at a time (politeness), so requests arrive strictly sequentially.
func TestURLModeSequentialDefault(t *testing.T) {
	var inflight, maxInflight atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			old := maxInflight.Load()
			if cur <= old || maxInflight.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		w.Header().Set("Content-Type", "text/html")
		_, _ = io.WriteString(w, "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</P></BODY></HTML>")
	}))
	defer srv.Close()

	args := []string{"-norc"}
	for i := 0; i < 8; i++ {
		args = append(args, fmt.Sprintf("%s/p%d", srv.URL, i))
	}
	code, _, stderr := runCLI(t, "", append([]string{"-u"}, args...)...)
	if code != 0 {
		t.Fatalf("code = %d, stderr=%q", code, stderr)
	}
	if maxInflight.Load() > 1 {
		t.Errorf("URL mode without -j ran %d concurrent fetches, want 1", maxInflight.Load())
	}
}
