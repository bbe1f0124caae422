package bdps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// counterWriters is the one-of-each table: for every metrics.Counters
// row, the (file, function) pairs outside internal/metrics that may
// write it — by naming its id (metrics.DropsCrashed) or by calling the
// Collector method that counts it (PublishedAt, DeliveredAt, …). A
// function is "Recv.Method" or "Func"; a closure counts as the function
// it is written in. Forwarding sinks (runtime.LockedSink, the live
// node's nodeCount) appear where they pass a delivery on.
var counterWriters = map[string][]string{
	"Published":    {"internal/runtime/plan.go:Plan.accountOne"},
	"TotalTargets": {"internal/runtime/plan.go:Plan.accountOne"},
	"Receptions": {
		"internal/livenet/datapath.go:Node.process",
		"internal/simnet/simnet.go:Network.arrive",
	},
	"ValidDeliveries": deliveryWriters,
	"LateDeliveries":  deliveryWriters,
	"DropsExpired":    {"internal/runtime/charge.go:Charge.Drops"},
	"DropsHopeless":   {"internal/runtime/charge.go:Charge.Drops"},
	"DropsArrival":    {"internal/runtime/charge.go:Charge.Result"},
	"DropsCrashed":    {"internal/runtime/charge.go:Charge.Crashed"},
	"Duplicates":      {"internal/runtime/charge.go:Charge.Result"},
	"Detections":      {"internal/runtime/repair.go:FailureDetector.ArcsDead"},
	"ReroutedPaths":   {"internal/runtime/repair.go:FailureDetector.repair"},
	"BoundsKept":      {"internal/runtime/repair.go:FailureDetector.repair"},
	"BoundsRelaxed":   {"internal/runtime/repair.go:FailureDetector.repair"},
	"BoundsRejected":  {"internal/runtime/repair.go:FailureDetector.repair"},
	"RefloodedSubs":   {"internal/runtime/repair.go:FailureDetector.repair"},
	"FramesLost":      {"internal/runtime/link.go:LinkSend.Account"},
	"Retransmits":     {"internal/runtime/link.go:LinkSend.Account"},
	"DupsSuppressed":  {"internal/runtime/link.go:LinkRecv.Accept"},
	"ReorderedHealed": {"internal/runtime/link.go:LinkRecv.Accept"},
	"DroppedDeadline": {
		"internal/runtime/charge.go:Charge.Resume",
		"internal/runtime/link.go:LinkSend.Account",
	},
	"FloodsSuppressed": {
		"internal/livenet/control.go:Node.handleSubscribe",
		"internal/runtime/plan.go:Assemble",
	},
	"AggregatedEntries": {"internal/runtime/runtime.go:Run"},
	"PubsAdmitted":      {"internal/runtime/admission.go:admission.decide"},
	"PubsRelaxed":       {"internal/runtime/admission.go:admission.decide"},
	"PubsRejected": {
		"internal/livenet/datapath.go:Node.admitPub",
		"internal/runtime/admission.go:admission.decide",
	},
	"SubsRejected":        {"internal/runtime/admission.go:Plan.admitWorkload"},
	"DropsShed":           {"internal/runtime/charge.go:Charge.Result"},
	"RestartReplayedSubs": {"internal/livenet/node.go:NewNode", "internal/simnet/simnet.go:Network.restartBroker"},
	"SessionsResumed":     {"internal/runtime/charge.go:Charge.Resume"},
	"ReplayedMsgs":        {"internal/runtime/charge.go:Charge.Resume"},
	"StaleEpochFrames":    {"internal/runtime/link.go:LinkRecv.Stale"},
}

var deliveryWriters = []string{
	"internal/livenet/reliable.go:nodeCount.DeliveredAt",
	"internal/runtime/charge.go:Charge.Result",
	"internal/runtime/sink.go:LockedSink.DeliveredAt",
}

// collectorWriters maps each metrics.Collector method that counts a
// ledger row to the rows it counts; arity tells AggregatedEntries(n)
// from the zero-argument readers of the same name.
var collectorWriters = map[string]struct {
	args int
	rows []string
}{
	"PublishedAt":       {2, []string{"Published", "TotalTargets"}},
	"PublishedToAt":     {2, []string{"Published", "TotalTargets"}},
	"DeliveredAt":       {5, []string{"ValidDeliveries", "LateDeliveries"}},
	"Detection":         {1, []string{"Detections"}},
	"PubAdmitted":       {1, []string{"PubsAdmitted"}},
	"PubRelaxed":        {1, []string{"PubsRelaxed"}},
	"PubRejected":       {1, []string{"PubsRejected"}},
	"AggregatedEntries": {1, []string{"AggregatedEntries"}},
}

// TestOneWriterPerCounter holds the root module's non-test code to the
// one-of-each facts: every ledger row is written only where
// counterWriters says, runtime.Plan.NewBroker is the only caller of
// broker.New, and the live backend converts time only through its
// runtime.Scale and clock (no vtime.ToDuration or FromDuration).
func TestOneWriterPerCounter(t *testing.T) {
	rows := counterRows(t)
	for name := range counterWriters {
		if !slices.Contains(rows, name) {
			t.Errorf("counterWriters names %s, which is not a metrics.Counters row", name)
		}
	}
	found := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || exists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir // another module, or no code
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/metrics/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		metricsPkg := importName(f, "bdps/internal/metrics")
		brokerPkg := importName(f, "bdps/internal/broker")
		vtimePkg := importName(f, "bdps/internal/vtime")
		livenet := strings.HasPrefix(path, "internal/livenet/")
		for _, decl := range f.Decls {
			fn := funcName(decl)
			site := path + ":" + fn
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					pkg, ok := n.X.(*ast.Ident)
					if !ok {
						return true
					}
					switch {
					case pkg.Name == metricsPkg && slices.Contains(rows, n.Sel.Name):
						found[n.Sel.Name] = append(found[n.Sel.Name], site)
						if !slices.Contains(counterWriters[n.Sel.Name], site) {
							t.Errorf("%s: %s writes %s; only %v may", fset.Position(n.Pos()), fn, n.Sel.Name, counterWriters[n.Sel.Name])
						}
					case pkg.Name == brokerPkg && n.Sel.Name == "New" && site != "internal/runtime/plan.go:Plan.NewBroker":
						t.Errorf("%s: %s calls broker.New; only runtime.Plan.NewBroker may", fset.Position(n.Pos()), fn)
					case livenet && pkg.Name == vtimePkg && (n.Sel.Name == "ToDuration" || n.Sel.Name == "FromDuration"):
						t.Errorf("%s: %s calls vtime.%s; the live backend converts through runtime.Scale", fset.Position(n.Pos()), fn, n.Sel.Name)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					w, writes := collectorWriters[sel.Sel.Name]
					if !writes || len(n.Args) != w.args {
						return true
					}
					for _, row := range w.rows {
						found[row] = append(found[row], site)
						if !slices.Contains(counterWriters[row], site) {
							t.Errorf("%s: %s writes %s (%s); only %v may", fset.Position(n.Pos()), fn, row, sel.Sel.Name, counterWriters[row])
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, site := range counterWriters[row] {
			if !slices.Contains(found[row], site) {
				t.Errorf("counterWriters lists %s as a writer of %s, which it no longer is", site, row)
			}
		}
	}
}

// counterRows returns the Counter ids declared in internal/metrics, in
// order: the const block that ends at NumCounters.
func counterRows(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "internal/metrics/counters.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		var rows []string
		for _, spec := range gen.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if name.Name == "NumCounters" {
					return rows
				}
				rows = append(rows, name.Name)
			}
		}
	}
	t.Fatal("internal/metrics/counters.go declares no NumCounters")
	return nil
}

// funcName names a top-level declaration: "Recv.Method", "Func", or ""
// for a var, const or type declaration.
func funcName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// importName is the name file f refers to package path by, or "" when f
// does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
