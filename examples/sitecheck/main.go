// Sitecheck: auditing a whole site tree through the library, the way
// the -R switch does (paper Section 4.5) — per-page syntax checks plus
// the site-level analyses: directories without index files, orphan
// pages, and broken local links.
//
// The example materialises a small synthetic site (with deliberate
// defects) into a temporary directory and audits it.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"weblint/internal/corpus"
	"weblint/internal/sitewalk"
	"weblint/internal/warn"
)

func main() {
	root, err := os.MkdirTemp("", "weblint-sitecheck")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// A 12-page site with 2 orphan pages, 2 broken links, and one
	// directory without an index file.
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 1998, Pages: 12, Orphans: 2, BrokenLinks: 2, Subdirs: 2,
		Errors: corpus.ErrorRates{MissingAlt: 0.3},
	})
	for rel, content := range pages {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	report, err := sitewalk.Walk(root, sitewalk.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("checked %d pages\n\n", len(report.Pages))

	byID := map[string][]warn.Message{}
	for _, m := range report.Messages {
		byID[m.ID] = append(byID[m.ID], m)
	}
	for _, id := range []string{"no-index-file", "orphan-page", "bad-link", "img-alt"} {
		fmt.Printf("%s (%d):\n", id, len(byID[id]))
		for i, m := range byID[id] {
			if i == 5 {
				fmt.Printf("  ... and %d more\n", len(byID[id])-5)
				break
			}
			fmt.Printf("  %s(%d): %s\n", m.File, m.Line, m.Text)
		}
	}

	fmt.Printf("\nexternal links found (for a remote link checker): %d\n", len(report.External))
}
