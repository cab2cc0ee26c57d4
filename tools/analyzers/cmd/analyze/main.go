// Command analyze is the multichecker for this repo's invariant suite: it
// loads the module at -dir, runs the poolbalance, nowallclock, ctxflow,
// metricname, and deadexport analyzers over the matched packages, and exits
// non-zero on any finding. CI runs it through `make analyze`.
//
// Usage:
//
//	analyze -dir ../.. -nowallclock.allowlist ../../.nowallclock-allow ./...
//
// Findings print as file:line:col: message (analyzer). Suppress an
// individual true-but-intended site with `//nolint:<analyzer> // reason` —
// the reason is mandatory; bare //nolint directives do not suppress.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mobiledl/tools/analyzers/analysis"
	"mobiledl/tools/analyzers/ctxflow"
	"mobiledl/tools/analyzers/deadexport"
	"mobiledl/tools/analyzers/internal/load"
	"mobiledl/tools/analyzers/metricname"
	"mobiledl/tools/analyzers/nowallclock"
	"mobiledl/tools/analyzers/poolbalance"
)

// suite is every analyzer the binary runs, in output-grouping order.
var suite = []*analysis.Analyzer{
	poolbalance.Analyzer,
	nowallclock.Analyzer,
	ctxflow.Analyzer,
	metricname.Analyzer,
	deadexport.Analyzer,
}

func main() {
	dir := flag.String("dir", ".", "module root to analyze")
	allowlist := flag.String("nowallclock.allowlist", "", "path to the nowallclock exception file")
	listOnly := flag.Bool("list", false, "print the analyzers and exit")
	flag.Usage = usage
	flag.Parse()

	if *listOnly {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := filepath.Abs(*dir)
	if err != nil {
		fatal("resolving -dir: %v", err)
	}
	flags := map[string]string{}
	if *allowlist != "" {
		abs, err := filepath.Abs(*allowlist)
		if err != nil {
			fatal("resolving allowlist: %v", err)
		}
		flags["allowlist"] = abs
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := load.Load(root, patterns...)
	if err != nil {
		fatal("%v", err)
	}

	uses := analysis.NewUses()
	for _, pkg := range pkgs {
		uses.Add(pkg.Path, pkg.Info)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range suite {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.Info, flags, uses, &diags)
			if err := a.Run(pass); err != nil {
				fatal("%s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}

	analysis.SortDiagnostics(fset, diags)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = rel
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", file, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "analyze: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: analyze [-dir module] [-nowallclock.allowlist file] [packages]\n\nanalyzers:\n")
	for _, a := range suite {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	flag.PrintDefaults()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "analyze: "+format+"\n", args...)
	os.Exit(2)
}
