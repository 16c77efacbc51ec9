// Package config implements weblint's configuration handling: the
// site configuration file (useful for defining the style guide for a
// company or group), the user configuration file (.weblintrc on Unix
// systems), and the layering rules under which the user's file extends
// or overrides the site configuration and command-line switches
// override both.
//
// The configuration syntax is line-oriented:
//
//	# comments run to end of line
//	enable here-anchor physical-font
//	disable img-alt, mailto-link
//	extension netscape
//	html-version 3.2
//	set tag-case upper
//	set title-length 48
//	set output-style sarif
//	set fail-on warning
//	add here-words "more info" "click me"
//
// Identifiers may be separated by spaces or commas. Category names
// ("errors", "style") and "all" are accepted wherever a warning
// identifier is.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"weblint/internal/warn"
)

// opKind is the kind of one configuration directive.
type opKind int

const (
	opEnable opKind = iota
	opDisable
	opExtension
	opHTMLVersion
	opSet
	opAddHereWords
)

// op is one parsed directive, retained in file order so that later
// directives override earlier ones.
type op struct {
	kind  opKind
	key   string
	value string
	words []string
	line  int
}

// Config is a parsed configuration file (or an accumulation of several
// layered files).
type Config struct {
	ops []op
	// Source names the file the configuration was read from, for
	// error messages.
	Source string
}

// ParseError describes a syntax problem in a configuration file.
type ParseError struct {
	Source string
	Line   int
	Msg    string
}

// Error formats the parse error with its position.
func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.Source, e.Line, e.Msg)
}

// Parse reads a configuration from r. source names the input for
// error reporting.
func Parse(r io.Reader, source string) (*Config, error) {
	cfg := &Config{Source: source}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := cfg.parseLine(line, lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config: reading %s: %w", source, err)
	}
	return cfg, nil
}

// ParseFile reads a configuration file from disk.
func ParseFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f, path)
}

// parseLine parses one non-empty directive line.
func (c *Config) parseLine(line string, lineNo int) error {
	fields := splitDirective(line)
	if len(fields) == 0 {
		return nil
	}
	cmd := strings.ToLower(fields[0])
	args := fields[1:]
	fail := func(msg string) error {
		return &ParseError{Source: c.Source, Line: lineNo, Msg: msg}
	}
	switch cmd {
	case "enable", "disable":
		if len(args) == 0 {
			return fail(cmd + " requires at least one warning identifier")
		}
		kind := opEnable
		if cmd == "disable" {
			kind = opDisable
		}
		for _, id := range args {
			c.ops = append(c.ops, op{kind: kind, key: id, line: lineNo})
		}
	case "extension":
		if len(args) == 0 {
			return fail("extension requires a vendor name")
		}
		for _, v := range args {
			c.ops = append(c.ops, op{kind: opExtension, key: v, line: lineNo})
		}
	case "html-version":
		if len(args) != 1 {
			return fail("html-version requires exactly one version")
		}
		c.ops = append(c.ops, op{kind: opHTMLVersion, key: args[0], line: lineNo})
	case "set":
		if len(args) < 2 {
			return fail("set requires a key and a value")
		}
		c.ops = append(c.ops, op{
			kind: opSet, key: strings.ToLower(args[0]),
			value: strings.Join(args[1:], " "), line: lineNo,
		})
	case "add":
		if len(args) < 2 {
			return fail("add requires a list name and at least one value")
		}
		if strings.ToLower(args[0]) != "here-words" {
			return fail("unknown list " + strconv.Quote(args[0]))
		}
		c.ops = append(c.ops, op{kind: opAddHereWords, words: args[1:], line: lineNo})
	default:
		return fail("unknown directive " + strconv.Quote(cmd))
	}
	return nil
}

// SplitList splits a command-line list of identifiers (-e, -d, -x)
// separated by commas, spaces or both.
func SplitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}

// splitDirective splits a directive line into fields, honouring
// double-quoted strings and treating commas as separators.
func splitDirective(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case ch == '"':
			if inQuote {
				out = append(out, cur.String()) // may be empty
				cur.Reset()
			}
			inQuote = !inQuote
		case inQuote:
			cur.WriteByte(ch)
		case ch == ' ' || ch == '\t' || ch == ',':
			flush()
		default:
			cur.WriteByte(ch)
		}
	}
	flush()
	return out
}

// Settings is the result of applying a stack of configurations: the
// warning enablement set plus the option values the checker consumes.
type Settings struct {
	// Set is the warning enablement selection.
	Set *warn.Set
	// HTMLVersion is the requested version ("" = default).
	HTMLVersion string
	// Extensions are the enabled vendor extensions.
	Extensions []string
	// TagCase and AttrCase configure the case style checks.
	TagCase  string
	AttrCase string
	// TitleLength overrides the title-length limit (0 = default).
	TitleLength int
	// HereWords extends the content-free anchor text list.
	HereWords []string
	// OutputStyle selects the diagnostics renderer: "lint", "short",
	// "terse", "verbose", or the machine-readable "json" (JSON Lines)
	// and "sarif" (SARIF 2.1.0).
	OutputStyle string
	// FailOn is the severity threshold that turns findings into a
	// failing exit: "error", "warning", "style" (or "any", the
	// default), or "never".
	FailOn string
	// Locale selects a message translation catalog ("" = English).
	Locale string
}

// NewSettings returns the default settings.
func NewSettings() *Settings {
	return &Settings{Set: warn.NewSet()}
}

// Apply layers cfg's directives onto s, in file order. Directives in
// later-applied configurations therefore override earlier ones, which
// is how the user file overrides the site file.
func (s *Settings) Apply(cfg *Config) error {
	for _, o := range cfg.ops {
		if err := s.applyOp(cfg, o); err != nil {
			return err
		}
	}
	return nil
}

func (s *Settings) applyOp(cfg *Config, o op) error {
	wrap := func(err error) error {
		if err == nil {
			return nil
		}
		return &ParseError{Source: cfg.Source, Line: o.line, Msg: err.Error()}
	}
	switch o.kind {
	case opEnable:
		return wrap(s.Set.Enable(o.key))
	case opDisable:
		return wrap(s.Set.Disable(o.key))
	case opExtension:
		s.Extensions = append(s.Extensions, o.key)
	case opHTMLVersion:
		s.HTMLVersion = o.key
	case opAddHereWords:
		s.HereWords = append(s.HereWords, o.words...)
	case opSet:
		switch o.key {
		case "tag-case":
			s.TagCase = strings.ToLower(o.value)
		case "attribute-case":
			s.AttrCase = strings.ToLower(o.value)
		case "title-length":
			n, err := strconv.Atoi(o.value)
			if err != nil || n <= 0 {
				return wrap(fmt.Errorf("title-length must be a positive integer, got %q", o.value))
			}
			s.TitleLength = n
		case "output-style":
			v := strings.ToLower(o.value)
			switch v {
			case "lint", "short", "terse", "verbose", "json", "sarif":
				s.OutputStyle = v
			default:
				return wrap(fmt.Errorf("unknown output-style %q", o.value))
			}
		case "fail-on":
			v := strings.ToLower(o.value)
			if _, ok := warn.ParseFailOn(v); !ok {
				return wrap(fmt.Errorf("unknown fail-on threshold %q", o.value))
			}
			s.FailOn = v
		case "locale":
			v := strings.ToLower(o.value)
			if v != "en" && v != "" {
				if _, ok := warn.Locale(v); !ok {
					return wrap(fmt.Errorf("unknown locale %q (built in: %s)",
						o.value, strings.Join(warn.Locales(), ", ")))
				}
			}
			s.Locale = v
		default:
			return wrap(fmt.Errorf("unknown setting %q", o.key))
		}
	}
	return nil
}

// SiteConfigPath returns the path of the site configuration file,
// honouring $WEBLINTRC_SITE; the file need not exist.
func SiteConfigPath() string {
	if p := os.Getenv("WEBLINTRC_SITE"); p != "" {
		return p
	}
	return "/etc/weblintrc"
}

// UserConfigPath returns the path of the user configuration file,
// honouring $WEBLINTRC; the file need not exist.
func UserConfigPath() string {
	if p := os.Getenv("WEBLINTRC"); p != "" {
		return p
	}
	home, err := os.UserHomeDir()
	if err != nil {
		return ""
	}
	return filepath.Join(home, ".weblintrc")
}

// LoadDefault builds Settings from the default layering: built-in
// defaults, then the site configuration file, then the user
// configuration file. Missing files are not errors.
func LoadDefault() (*Settings, error) {
	s := NewSettings()
	for _, path := range []string{SiteConfigPath(), UserConfigPath()} {
		if path == "" {
			continue
		}
		cfg, err := ParseFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		if err := s.Apply(cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}
