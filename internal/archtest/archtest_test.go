package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"a2sgd"
)

// rule confines references to sym ("import/path.Name"; literal: only
// composite literals of that type) within the files under the in prefix
// ("" = the whole module) to the allow list; why names the one path.
type rule struct {
	sym     string
	literal bool
	in      string
	allow   []string
	why     string
}

var rules = []rule{
	{sym: "a2sgd/internal/cluster.Config", literal: true, allow: []string{"a2sgd.go"},
		why: "only a2sgd.lower writes one: every run is a TrainConfig"},
	{sym: "a2sgd/internal/cluster.Lower", allow: []string{"a2sgd.go"},
		why: "only a2sgd.lower lowers a spec string"},
	{sym: "a2sgd/internal/cluster.Train", allow: []string{"a2sgd.go", "internal/elastic/job.go"},
		why: "only a2sgd.Train and the elastic supervisor start a run"},
	{sym: "a2sgd/internal/comm/faultnet.Parse", in: "cmd/",
		why: "no CLI parses faults: they go to TrainConfig.Faults"},
	{sym: "a2sgd/internal/elastic.ReadSnapshotFile", in: "cmd/",
		why: "no CLI reads a snapshot: runs resume through TrainConfig.ResumePath"},
	{sym: "a2sgd.BuildSchedule", in: "cmd/",
		why: "no CLI plans: auto(…) goes in TrainConfig.Spec"},
	{sym: "a2sgd/internal/plan.Build", allow: []string{"a2sgd.go", "internal/bench/auto.go"},
		why: "only a2sgd.BuildSchedule plans, and the auto study prices paper-scale segments"},
	{sym: "a2sgd/internal/comm.ErrGroupStop", allow: []string{"internal/cluster/cluster.go"},
		why: "only cluster's pausedError stops a group cooperatively; comm.Launch alone tests for it"},
}

// violations lists every reference in f (at rel, slash-separated from the
// module root) that breaks a rule, as "file:line: …".
func violations(fset *token.FileSet, rel string, f *ast.File) []string {
	imports := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	symbol := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				return imports[x.Name] + "." + sel.Sel.Name
			}
		}
		return ""
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		e, _ := n.(ast.Expr)
		lit, literal := n.(*ast.CompositeLit)
		if literal {
			e = lit.Type
		}
		sym := symbol(e)
		for _, r := range rules {
			if sym == r.sym && literal == r.literal && strings.HasPrefix(rel, r.in) && !slices.Contains(r.allow, rel) {
				out = append(out, fmt.Sprintf("%s:%d: %s: %s", rel, fset.Position(n.Pos()).Line, sym, r.why))
			}
		}
		return true
	})
	return out
}

// TestSinglePaths checks every non-test Go file of module a2sgd — nested
// modules such as benchmark/ excluded — against the rules.
func TestSinglePaths(t *testing.T) {
	root := filepath.Join("..", "..")
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module a2sgd\n") {
		t.Fatalf("module a2sgd's go.mod not at %s: %v", root, err)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if _, mod := os.Stat(filepath.Join(p, "go.mod")); d.IsDir() && p != root && (mod == nil || d.Name()[0] == '.') {
			return filepath.SkipDir // a nested module, or .git and the like
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		for _, v := range violations(fset, filepath.ToSlash(rel), f) {
			t.Error(v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRulesCatchViolations: the checker flags forbidden calls, an aliased
// import, a literal and a variable, and leaves the allowed files alone.
func TestRulesCatchViolations(t *testing.T) {
	src := `package main

import (
	"a2sgd/internal/cluster"
	fn "a2sgd/internal/comm/faultnet"
)

func main() {
	sched, _ := cluster.Lower("fnn3", "a2sgd", 0, 0, false)
	_, _ = fn.Parse("")
	_, _ = cluster.Train(cluster.Config{Schedule: sched})
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(violations(fset, "cmd/x/main.go", f), "\n")
	for _, want := range []string{":9: a2sgd/internal/cluster.Lower", ":10: a2sgd/internal/comm/faultnet.Parse",
		":11: a2sgd/internal/cluster.Train", ":11: a2sgd/internal/cluster.Config"} {
		if !strings.Contains(got, "cmd/x/main.go"+want) {
			t.Errorf("missing cmd/x/main.go%s in:\n%s", want, got)
		}
	}
	if v := violations(fset, "a2sgd.go", f); len(v) != 0 {
		t.Errorf("a2sgd.go may lower, parse faults, train and build the config; got %q", v)
	}

	stop := `package x

import (
	"errors"

	"a2sgd/internal/comm"
)

func stopped(err error) bool { return errors.Is(err, comm.ErrGroupStop) }
`
	if f, err = parser.ParseFile(fset, "stop.go", stop, parser.SkipObjectResolution); err != nil {
		t.Fatal(err)
	}
	want := "internal/comm/tcpnet/stop.go:9: a2sgd/internal/comm.ErrGroupStop"
	if v := violations(fset, "internal/comm/tcpnet/stop.go", f); len(v) != 1 || !strings.HasPrefix(v[0], want) {
		t.Errorf("got %q, want one violation %s", v, want)
	}
	if v := violations(fset, "internal/cluster/cluster.go", f); len(v) != 0 {
		t.Errorf("internal/cluster/cluster.go may wrap comm.ErrGroupStop; got %q", v)
	}
}

// settable is the budget of values a user can set: every entry is one more
// thing to document, test and keep working, so adding one means editing this
// list. Fields, flags and rule names are in source order, other names sorted.
var settable = map[string][]string{
	"a2sgd.Job fields": {"Config", "Scenario", "TCP", "Replan", "MaxRestarts", "ResetBudgetAfter", "Pool", "Drain",
		"SnapshotSink", "Health", "BackupSlots", "DriftReplan", "DriftModel", "DriftThreshold"},
	"a2sgd.TrainConfig fields": {"Family", "Spec", "Workers", "Epochs", "StepsPerEpoch", "BatchPerWorker",
		"Seed", "Momentum", "TCP", "Faults", "LRScale", "BucketBytes", "Overlap", "Concurrency",
		"Interleave", "Topology", "CheckpointEvery", "SnapshotPath", "ResumePath", "Schedule"},
	"cmd/a2sgdbench flags": {"experiment", "maxn", "scale", "workers", "epochs", "steps", "fabric", "buckets",
		"topology", "algos", "chaosseed", "chaostcp", "json", "compare", "comparetol"},
	"cmd/a2sgdserve flags": {"jobs", "pool", "dir", "resume", "transport"},
	"cmd/a2sgdtrain flags": {"family", "spec", "workers", "epochs", "steps", "batch", "seed", "momentum",
		"transport", "faults", "bucket-bytes", "overlap", "concurrency", "interleave", "topology",
		"checkpoint-every", "snapshot", "resume"},
	"jobs.json keys": {"name", "family", "spec", "workers", "epochs", "steps", "batch", "seed", "momentum",
		"bucket_bytes", "checkpoint_every", "faults", "backup_workers", "drift_replan"},
	"spec names": {"a2sgd", "a2sgd-allgather", "a2sgd-noef", "a2sgd-onemean", "dense", "gaussiank",
		"periodic", "qsgd", "qsgd-elias", "topk"},
	"policy names": {"mixed", "uniform"},
	"faultnet rule names": {"seed", "deadline", "retry", "delay", "bw", "loss", "dup", "reorder", "straggler",
		"degrade", "crash", "stall", "preempt", "flap", "partition"},
}

// flagDefiners are package flag's definers that take the name first (...Var ones take it second).
var flagDefiners = []string{"Bool", "BoolFunc", "Duration", "Float64", "Func", "Int", "Int64", "String", "Uint", "Uint64"}

// inspect walks one source file, named from the module root.
func inspect(t *testing.T, file string, visit func(ast.Node)) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", file), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool { visit(n); return true })
}

// fieldsOf lists the fields of struct type typ in file, or with tag set,
// their names under that struct tag key.
func fieldsOf(t *testing.T, file, typ, tag string) (out []string) {
	inspect(t, file, func(n ast.Node) {
		ts, _ := n.(*ast.TypeSpec)
		if ts == nil || ts.Name.Name != typ {
			return
		}
		for _, fd := range ts.Type.(*ast.StructType).Fields.List {
			if tag == "" {
				for _, id := range fd.Names {
					out = append(out, id.Name)
				}
			} else if fd.Tag != nil {
				v, _ := strconv.Unquote(fd.Tag.Value)
				name, _, _ := strings.Cut(reflect.StructTag(v).Get(tag), ",")
				out = append(out, name)
			}
		}
	})
	return out
}

// flagsOf lists the flags file defines through package flag.
func flagsOf(t *testing.T, file string) (out []string) {
	inspect(t, file, func(n ast.Node) {
		call, _ := n.(*ast.CallExpr)
		if call == nil {
			return
		}
		fn, pkgFlag := strings.CutPrefix(types.ExprString(call.Fun), "flag.")
		arg, define := 0, slices.Contains(flagDefiners, fn)
		if strings.HasSuffix(fn, "Var") {
			arg, define = 1, true
		}
		if !pkgFlag || strings.Contains(fn, ".") || !define || len(call.Args) <= arg {
			return
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			out = append(out, name)
		}
	})
	return out
}

// TestSettableValuesBudget compares the module's settable values against
// the settable list.
func TestSettableValuesBudget(t *testing.T) {
	got := map[string][]string{
		"a2sgd.TrainConfig fields": fieldsOf(t, "a2sgd.go", "TrainConfig", ""),
		"a2sgd.Job fields":         fieldsOf(t, "internal/elastic/job.go", "Job", ""), // a2sgd.Job aliases it
		"jobs.json keys":           fieldsOf(t, "cmd/a2sgdserve/main.go", "jobSpec", "json"),
		"spec names":               a2sgd.Algorithms(),
	}
	for _, u := range a2sgd.PolicyUsage() {
		name, _, _ := strings.Cut(u, "(")
		got["policy names"] = append(got["policy names"], name)
	}
	slices.Sort(got["policy names"])
	inspect(t, "internal/comm/faultnet/scenario.go", func(n ast.Node) { // parseRule's switch on the rule name
		if sw, _ := n.(*ast.SwitchStmt); sw != nil && types.ExprString(sw.Tag) == "name" {
			for _, cc := range sw.Body.List {
				for _, e := range cc.(*ast.CaseClause).List {
					got["faultnet rule names"] = append(got["faultnet rule names"], strings.Trim(types.ExprString(e), `"`))
				}
			}
		}
	})
	cmds, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cmds {
		if key := "cmd/" + filepath.Base(filepath.Dir(p)) + " flags"; !strings.HasSuffix(p, "_test.go") {
			got[key] = append(got[key], flagsOf(t, strings.TrimPrefix(filepath.ToSlash(p), "../../"))...)
		}
	}
	keys := maps.Clone(got)
	maps.Copy(keys, settable)
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		if !slices.Equal(got[k], settable[k]) {
			t.Errorf("%s: %d settable, want %d — a settable value is added or removed by editing the settable list\n got %q\nwant %q",
				k, len(got[k]), len(settable[k]), got[k], settable[k])
		}
	}
}
