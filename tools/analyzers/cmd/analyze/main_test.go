package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeTableMatchesSuite fails when the analyzer table in README's
// "Static analysis" section and the suite slice name different analyzers.
func TestReadmeTableMatchesSuite(t *testing.T) {
	readme, err := os.ReadFile("../../../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Static analysis\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var table, names []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(section, -1) {
		table = append(table, m[1])
	}
	for _, a := range suite {
		names = append(names, a.Name)
	}
	if slices.Sort(table); !slices.Equal(table, slices.Sorted(slices.Values(names))) {
		t.Fatalf("README analyzer table lists %v, suite runs %v", table, names)
	}
}
