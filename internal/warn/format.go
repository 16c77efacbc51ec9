package warn

import (
	"fmt"
	"strings"
)

// Formatter renders a Message to one line (or, for verbose formatters,
// several). The checker and CLI are formatter-agnostic; the gateway
// installs its own HTML formatter, which is the paper's "warnings
// module can be sub-classed" mechanism.
type Formatter interface {
	Format(Message) string
}

// FormatterFunc adapts a function to the Formatter interface.
type FormatterFunc func(Message) string

// Format calls f(m).
func (f FormatterFunc) Format(m Message) string { return f(m) }

// Lint is the default, traditional lint style of message:
//
//	test.html(1): first element was not DOCTYPE specification
type Lint struct{}

// Format renders m in traditional lint style.
func (Lint) Format(m Message) string {
	return fmt.Sprintf("%s(%d): %s", m.File, m.Line, m.Text)
}

// Short is the -s style of message shown in the paper:
//
//	line 1: first element was not DOCTYPE specification
type Short struct{}

// Format renders m in short style.
func (Short) Format(m Message) string {
	return fmt.Sprintf("line %d: %s", m.Line, m.Text)
}

// Terse is a machine-readable style for driving editors and scripts:
//
//	test.html:1:doctype-first
type Terse struct{}

// Format renders m in terse style.
func (Terse) Format(m Message) string {
	return fmt.Sprintf("%s:%d:%s", m.File, m.Line, m.ID)
}

// Verbose renders the lint-style line followed by the message's longer
// explanation, indented four columns and wrapped at verboseWidth.
type Verbose struct{}

// verboseWidth is the column Verbose wraps explanations at.
const verboseWidth = 72

// Format renders m with its explanation.
func (Verbose) Format(m Message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%d): %s [%s, %s]", m.File, m.Line, m.Text, m.ID, m.Category)
	if d := Lookup(m.ID); d != nil && d.Explain != "" {
		for _, line := range wrap(d.Explain, verboseWidth-4) {
			b.WriteString("\n    ")
			b.WriteString(line)
		}
	}
	return b.String()
}

// wrap splits text into lines no longer than width, breaking at spaces.
func wrap(text string, width int) []string {
	if width < 8 {
		width = 8
	}
	words := strings.Fields(text)
	var lines []string
	var cur strings.Builder
	for _, w := range words {
		if cur.Len() > 0 && cur.Len()+1+len(w) > width {
			lines = append(lines, cur.String())
			cur.Reset()
		}
		if cur.Len() > 0 {
			cur.WriteByte(' ')
		}
		cur.WriteString(w)
	}
	if cur.Len() > 0 {
		lines = append(lines, cur.String())
	}
	return lines
}
