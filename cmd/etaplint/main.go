// Command etaplint is ETAP's repo-aware static-analysis gate. It runs
// the internal/lint rule set — the syntactic rules (determinism,
// metric-discipline, error-swallowing, context-plumbing,
// mutex-discipline, doc-comments) plus the flow-aware concurrency
// rules (goroutine-lifecycle, lock-order, channel-discipline) built on
// the per-function CFG and intra-package call graph — over the given
// packages and fails when any finding at or above the severity
// threshold survives suppression and the baseline.
//
// Usage:
//
//	etaplint [-json] [-rules r1,r2] [-severity error|warning|info]
//	         [-baseline file [-write-baseline]] [packages]
//
// Packages are directory patterns relative to the working directory;
// "pkg/..." walks recursively (testdata and vendor are pruned, like
// the go tool). The default pattern is ./... from the module root.
//
// Flags:
//
//	-json            emit findings as a JSON array instead of text
//	-rules           comma-separated rule IDs to run (default: all)
//	-severity        minimum severity that causes a non-zero exit
//	                 (default: warning; all findings are always printed)
//	-list            print the available rules and exit
//	-baseline        JSON findings baseline; findings recorded there are
//	                 subtracted, so CI gates on "no new findings"
//	-write-baseline  rewrite the -baseline file from the current
//	                 findings and exit 0
//
// Exit status: 0 when no finding meets the threshold, 1 when at least
// one does, 2 on usage or load errors. Suppress an individual finding
// in source with `//etaplint:ignore <rule> -- <reason>`; see
// LINTING.md for the rule catalog.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"etap/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fprintf writes best-effort diagnostics to the caller's writer.
func fprintf(w io.Writer, format string, args ...any) {
	//etaplint:ignore error-swallowing -- diagnostics are best-effort: a CLI driver has nowhere to report a failed stderr write
	_, _ = fmt.Fprintf(w, format, args...)
}

// run executes the linter and returns the process exit code: 0 when no
// finding meets the severity threshold (after baseline subtraction), 1
// when at least one does, 2 on usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("etaplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	rulesSpec := fs.String("rules", "all", "comma-separated rule IDs to run")
	severity := fs.String("severity", "warning", "minimum severity causing a non-zero exit (info, warning, error)")
	list := fs.Bool("list", false, "print the available rules and exit")
	baselinePath := fs.String("baseline", "", "JSON findings baseline: findings recorded there do not fail the run")
	writeBaseline := fs.Bool("write-baseline", false, "rewrite the -baseline file from the current findings and exit 0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fprintf(stderr, "etaplint: %v\n", err)
		return 2
	}

	rules, err := lint.SelectRules(*rulesSpec)
	if err != nil {
		return fail(err)
	}
	if *list {
		for _, r := range rules {
			fprintf(stdout, "%-18s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	threshold, err := lint.ParseSeverity(*severity)
	if err != nil {
		return fail(err)
	}
	if *writeBaseline && *baselinePath == "" {
		return fail(fmt.Errorf("-write-baseline requires -baseline <file>"))
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		return fail(err)
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		return fail(err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		p, err := loader.Load(dir)
		if err != nil {
			return fail(err)
		}
		pkgs = append(pkgs, p)
	}

	findings := lint.Run(pkgs, rules)
	if *writeBaseline {
		f, err := os.Create(*baselinePath)
		if err != nil {
			return fail(err)
		}
		werr := lint.WriteBaseline(f, findings)
		cerr := f.Close()
		if werr != nil {
			return fail(werr)
		}
		if cerr != nil {
			return fail(cerr)
		}
		fprintf(stderr, "etaplint: wrote baseline with %d finding(s) to %s\n", len(findings), *baselinePath)
		return 0
	}
	if *baselinePath != "" {
		f, err := os.Open(*baselinePath)
		if err != nil {
			return fail(err)
		}
		base, rerr := lint.ReadBaseline(f)
		if cerr := f.Close(); cerr != nil {
			return fail(cerr)
		}
		if rerr != nil {
			return fail(rerr)
		}
		findings = base.Filter(findings)
	}

	if *jsonOut {
		err = lint.WriteJSON(stdout, findings)
	} else {
		err = lint.WriteText(stdout, findings)
	}
	if err != nil {
		return fail(err)
	}
	failing := 0
	for _, f := range findings {
		if f.Severity >= threshold {
			failing++
		}
	}
	if failing > 0 {
		if !*jsonOut {
			fprintf(stderr, "etaplint: %d finding(s) at or above severity %s\n", failing, threshold)
		}
		return 1
	}
	return 0
}
