// Command weblint-lsp is weblint's Language Server Protocol server:
// it speaks LSP over stdio, publishing weblint diagnostics as the
// author edits and offering the machine-applicable fixes as quick
// fix code actions. Point any LSP client at the binary — see
// examples/editor-lsp for VS Code and Neovim configurations.
//
// Usage:
//
//	weblint-lsp [-debounce 200ms] [-log]
//
// The server reads LSP framing from stdin and writes it to stdout;
// -log echoes server-side events (configuration problems, protocol
// noise) to stderr, which LSP clients surface in their log panes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"weblint/internal/lsp"
)

const version = "weblint-lsp 2.0 (Go)"

func main() {
	fs := flag.NewFlagSet("weblint-lsp", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	debounce := fs.Duration("debounce", 0, "publish delay after the last change (default 200ms)")
	verbose := fs.Bool("log", false, "log server events to stderr")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *showVersion {
		fmt.Println(version)
		return
	}

	opts := lsp.Options{DebounceDelay: *debounce}
	if *verbose {
		logger := log.New(os.Stderr, "weblint-lsp: ", log.LstdFlags)
		opts.Logf = logger.Printf
	}
	if err := lsp.NewServer(opts).Run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "weblint-lsp: %v\n", err)
		os.Exit(1)
	}
}
