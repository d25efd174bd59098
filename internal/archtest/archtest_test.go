// Package archtest holds the design's structural rules as one table,
// rules, that go test checks against the module's own source.
package archtest

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// L prefixes the live gateway's files in the table's allowed sites.
const L = "internal/faas/live/"

var (
	live, all = []string{"internal/faas/live"}, []string{"..."}
	sim       = []string{"internal/faas", "internal/pool", "internal/core"}
	legs      = []string{"internal/prefork", "internal/faas/live", "internal/router", "cmd/hotc-router"}
	metrics   = []string{"cmd/...", "internal/...", "."}
	atomics   = []string{"Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value"}
	isObs     = regexp.MustCompile(`obs$`).MatchString
	isIdle    = regexp.MustCompile(`^[\w.]*\.idle\b`).MatchString
	isStamp   = regexp.MustCompile(`\b(idleSince|LastUsedAt|lastDone|lastArrival)\b`).MatchString
)

// rules is the design, one row per rule. A new structural property is a
// row here and a tree under testdata/ that breaks it.
var rules = []row{
	// One clock. The live gateway read and waited on the wall clock through
	// three seams and 23 direct calls, so a test that faked one seam still
	// ran the breaker, the SLO windows, the cycle's tickers, uptime and span
	// stamps on the wall clock: every read and wait goes through the
	// gateway's clock field, and only the wall clock's methods call time.
	// A request's deadline was a context.WithTimeout, a wall-clock timer
	// the test clock never fired: a deadline context is the clock's too.
	{name: "one clock: time read and waited on only by wallClock", in: live,
		match: either(sel("time", "Now", "Since", "Until", "Sleep", "NewTicker", "NewTimer", "After", "AfterFunc", "Tick"),
			sel("context", "WithTimeout", "WithTimeoutCause", "WithDeadline", "WithDeadlineCause")),
		allow: sites{L + "clock.go wallClock.Now": 1, L + "clock.go wallClock.Sleep": 1, L + "clock.go wallClock.NewTicker": 1,
			L + "clock.go wallClock.WithDeadline": 1}, exact: true},

	// One way in, one way out. The live gateway builds an instance in one
	// boot, and only warmlist.go's shard methods write a warm list:
	// duplicates of either grew back unnoticed before.
	{name: "one way in, one way out: warm lists written in warmlist.go", in: live, out: []string{L + "warmlist.go"},
		match: either(assigns(`.*\.idle(\[.*\])?`, token.ASSIGN, token.DEFINE),
			is(func(c *at, x *ast.CallExpr) bool {
				return callee(x) == "append" && isIdle(text(x.Args[0]))
			}))},
	// Every /function/ request leaves handle through conclude, which alone
	// writes a gateway refusal, counts the outcome and latency and finishes
	// the span; every event is booked once, in the registry the JSON views
	// read back. watchdog.go (the function's replies) and daemon.go (the
	// management API) write their own errors.
	{name: "one way in, one way out: requests finished by conclude", in: live, match: call("finishRequest"),
		allow: sites{L + "live.go Gateway.conclude": 1}, exact: true},
	{name: "one way in, one way out: outcomes observed by conclude", in: live, match: call("observe"),
		allow: sites{L + "live.go Gateway.conclude": 1}, exact: true},
	{name: "one way in, one way out: refusals written by conclude and the 404", in: live, out: []string{L + "watchdog.go", L + "daemon.go"},
		match: sel("net/http", "Error"), allow: sites{L + "live.go Gateway.conclude": 1, L + "live.go Gateway.handle": 1}},
	{name: "one way in, one way out: sharing and the cold path count in the registry", in: []string{L + "sharing.go", L + "coldpath.go"},
		match: sel("sync/atomic", "Uint64", "Int64")},
	{name: "one way in, one way out: reclaims and sampled-out spans count in the registry", in: live,
		out: []string{L + "sharing.go", L + "coldpath.go", L + "watchdog.go", L + "daemon.go"},
		match: either(is(func(c *at, f *ast.Field) bool {
			return hasName(f.Names, "memReclaimed", "sampledOut") && isSel(c, f.Type, "sync/atomic", atomics...)
		}), is(func(c *at, v *ast.ValueSpec) bool {
			return hasName(v.Names, "memReclaimed", "sampledOut") && isSel(c, v.Type, "sync/atomic", atomics...)
		}))},
	// One background goroutine, the control cycle, runs every periodic
	// decision as a stage, over the registry in name order: N + 1 free
	// tickers and a map iteration per walk made decisions depend on map
	// order. Goroutines: the cycle, a prewarm boot, stopAll's and
	// retire's teardowns and the server (the hop's body writer lives in
	// internal/hop).
	{name: "one way in, one way out: goroutines for the cycle, prewarms, teardowns and serving", in: live,
		match: is(func(c *at, g *ast.GoStmt) bool { return true }), allow: sites{L + "controller.go Gateway.startCycle": 1,
			L + "controller.go Gateway.controlOnce": 1, L + "live.go stopAll": 1, L + "live.go Gateway.retire": 1, L + "live.go Gateway.StartOn": 1}},
	{name: "one way in, one way out: the registry walked in name order", in: live, match: ranges("g.shards"),
		allow: sites{L + "live.go Gateway.Register": 1}},

	// One client, one relay. net/http's client cost a warm routed request
	// ~40 µs of CPU in handoffs and copies, and the router's control plane
	// kept one beside the hop: a second pool per node, and a drain with no
	// context that a hung node held for good. Every node link is a
	// hop.Conn (the watchdog's stopOnce is a sync.Once). Each proxy's relay
	// filtered, framed and copied its reply its own way, and only one acted
	// on a cut: a reply is copied by hop.Relay, and outside internal/hop
	// hop.Copy moves only echo's request body.
	{name: "one client: no net/http client on a node link", in: []string{"internal/router", "internal/faas/live", "internal/prefork", "internal/hop"},
		match: either(sel("net/http", "Client", "Transport", "DefaultClient", "DefaultTransport", "NewRequest", "NewRequestWithContext", "Get", "Post", "Head", "PostForm"),
			call("Do")), allow: sites{"internal/prefork/prefork.go Watchdog.Stop": 1}},
	{name: "one relay: replies copied by hop.Relay", in: all, match: is(func(c *at, x *ast.CallExpr) bool {
		if c.f.pkg == "hotc/internal/hop" {
			return text(x.Fun) == "Copy" && len(x.Args) == 2 && strings.HasSuffix(text(x.Args[1]), ".Body")
		}
		return isSel(c, x.Fun, "hotc/internal/hop", "Copy")
	}), allow: sites{"internal/hop/hop.go Relay": 1, L + "daemon.go Gateway.builtinFunction": 1}, exact: true},

	// One copy loop. Each chunk is a read and a write on a socket, so a
	// second chunk size costs syscalls on every body: bodies move through
	// hop.Copy, in hop's pooled BufSize chunks. A buffer sized by the
	// request holds one body whole and is no chunk.
	{name: "one copy loop: io.Copy only into io.Discard", in: []string{"internal/faas/live", "internal/router"},
		match: is(func(c *at, x *ast.CallExpr) bool {
			return isSel(c, x.Fun, "io", "Copy", "CopyBuffer", "CopyN") && !isSel(c, x.Args[0], "io", "Discard")
		})},
	{name: "one copy loop: copyPooled stays gone", in: all, tests: true, match: ident("copyPooled")},
	// One arrival order. The campus day's insertion sort was quadratic
	// within each minute and ReadCSV's over a whole file: a day is built
	// in order, minute by minute, and a file is sorted by SortStableFunc.
	{name: "one arrival order: sortByTime stays gone", in: all, tests: true, match: ident("sortByTime")},
	{name: "one copy loop: one constant-size byte chunk", in: []string{"internal/faas/live", "internal/router", "internal/hop"},
		match: is(func(c *at, x *ast.CallExpr) bool {
			return callee(x) == "make" && text(x.Args[0]) == "[]byte" && !slices.ContainsFunc(x.Args[1:], func(e ast.Expr) bool { return !c.constant(e) })
		}), allow: sites{"internal/hop/hop.go bufPool": 1}, exact: true},

	// One codec. net/http's MIME parsing cost ~18 % of a warm request's
	// CPU, its front door kept relayed bodies in user space, and the
	// watchdog kept an accept loop of its own: hop's Server, Serve and
	// Conn are the codec, with its framing rules and body limit once.
	{name: "one codec: no net/http server or parser", in: append([]string{"internal/hop"}, legs...),
		match: either(sel("net/http", "Server", "ReadResponse", "ReadRequest", "MaxBytesReader"), ident("EnableFullDuplex"))},
	{name: "one codec: one accept loop, in hop.Server", in: legs, match: call("Accept")},

	// One backend seam. A watchdog was started at two sites, a generic's
	// boot and a full cold boot's, each calling prefork.Start, so a
	// second backend would have been a second branch at each: a watchdog
	// comes to exist in a backend's start, which New resolves once. And
	// the function step had a copy per backend, the socket watchdog's
	// handler and the in-process call's, which drifted apart (a stream
	// that failed mid-reply was booked whole by both, a deadline answered
	// late by one): a function runs in run alone, once as a stream and
	// once as a buffered handler.
	{name: "one backend seam: watchdogs started by the backend's start, functions run by run", in: all,
		match: either(sel("hotc/internal/prefork", "Start", "Inline"), is(func(c *at, x *ast.CallExpr) bool {
			_, method := x.Fun.(*ast.SelectorExpr)
			return method && c.f.dir == "internal/faas/live" && slices.Contains([]string{"Stream", "Handler"}, callee(x))
		})),
		allow: sites{L + "watchdog.go socketBackend.start": 1, L + "watchdog.go inlineBackend.start": 1, L + "watchdog.go Gateway.run": 2}, exact: true},

	// Wired once. hotc.NewSimulation, bench.NewEnv and every cluster node
	// are one stack.New: hand-wired copies drifted (cluster nodes never
	// armed the memory threshold).
	wired("container.NewEngine", sel("hotc/internal/container", "NewEngine")),
	wired("host.New", sel("hotc/internal/host", "New")),
	wired("faas.NewGateway", sel("hotc/internal/faas", "NewGateway")),
	wired("Refs", call("Refs")),

	// One book (sim). The gateway, the pool and the controller count into
	// the registry every stack has, and Pool.Stats and ResilienceCounters
	// read it back: hand-kept twins and obs != nil branches drifted apart.
	{name: "one book (sim): no nil test on obs", in: sim, match: is(func(c *at, b *ast.BinaryExpr) bool {
		x, y := text(b.X), text(b.Y)
		return (b.Op == token.EQL || b.Op == token.NEQ) && (x == "nil" && isObs(y) || y == "nil" && isObs(x))
	})},
	{name: "one book (sim): no metrics.Counters", in: sim, match: sel("hotc/internal/metrics", "Counters")},
	{name: "one book (sim): no hand-counted pool stat", in: []string{"internal/pool"}, match: assigns(`.*stats\.\w+`, token.INC, token.ADD_ASSIGN)},
	{name: "one book (sim): resilience events booked by request.annotate", in: sim, match: bumps(`.*events(\[.*\]|\.With\(.*\))`),
		allow: sites{"internal/faas/faas.go request.annotate": 1}, exact: true},

	// One book (live). Eight hand-counted shard.stats sat beside the
	// families counting the same events, and disagreed (boots counted
	// prewarms too).
	{name: "one book (live): no hand-counted stat", in: live, match: assigns(`.*stats\.\w+`, token.INC, token.ADD_ASSIGN)},
	{name: "one book (live): shard keeps no stats", in: live,
		match: is(func(c *at, f *ast.Field) bool { return c.fn == "shard" && hasName(f.Names, "stats") })},
	{name: "one book (live): evictions named by reason", in: live, match: is(func(c *at, x *ast.CallExpr) bool {
		return callee(x) == "takeOldestLocked" && len(x.Args) > 1 && (text(x.Args[1]) == "nil" || strings.HasPrefix(text(x.Args[1]), "&"))
	})},
	{name: "one book (live): boots counted by acquire", in: live, match: bumps(`.*coldBoots\w*(\[.*\])?`),
		allow: sites{L + "live.go Gateway.acquire": 1}, exact: true},

	// One control step. Algorithm 3's interval close (tick, forecast, plan,
	// book) was written twice, with two declarations of hotc_ctl_* that
	// drifted: kernel.Demand.Step is the one close.
	{name: "one control step: intervals closed and booked in the kernel", in: all, out: []string{"internal/kernel/..."},
		match: either(sel("hotc/internal/kernel", "Plan"), call("Tick"),
			is(func(c *at, l *ast.BasicLit) bool { return strings.HasPrefix(l.Value[1:], "hotc_ctl_") }))},
	{name: "one control step: Plan called by Demand.Step", in: []string{"internal/kernel"}, match: call("Plan"),
		allow: sites{"internal/kernel/plan.go Demand.Step": 1}, exact: true},
	{name: "one control step: Tick called by Demand.Step", in: []string{"internal/kernel"}, match: call("Tick"),
		allow: sites{"internal/kernel/plan.go Demand.Step": 1}, exact: true},

	// Counted, not resolved per request. Walking every container on a
	// release and name-keyed lookups behind an RWMutex cost the simulator
	// a quarter of its time, hashing the ~100-byte runtime key a sixth:
	// occupancy is counted where it changes, a key is a handle
	// (Engine.KeyOf), and per-key records live in slices under it.
	{name: "counted, not resolved per request: containers walked by Engine.Live and LiveContainers", in: []string{"internal/container"},
		match: ranges("e.containers"), allow: sites{"internal/container/container.go Engine.Live": 1, "internal/container/container.go Engine.LiveContainers": 1}},
	{name: "counted, not resolved per request: no RWMutex", in: []string{"internal/faas", "internal/pool"}, match: sel("sync", "RWMutex")},
	{name: "counted, not resolved per request: no map read by runtime key", in: append([]string{"internal/container"}, sim...),
		match: is(func(c *at, ix *ast.IndexExpr) bool {
			key, ok := ix.Index.(*ast.CallExpr)
			a, set := c.up[len(c.up)-1].(*ast.AssignStmt)
			return ok && callee(key) == "Key" && len(key.Args) == 0 && !(set && a.Tok == token.ASSIGN && slices.Contains(a.Lhs, ast.Expr(ix)))
		})},

	// One placement, one lender rule, one reclaim rule. The router and the
	// simulated cluster placed by two rules, so hotc-bench measured a
	// placement no deployment ran; the pool and the gateway chose lenders
	// by two scans with other ties; the gateway's water-fill reclaimed from
	// the hot function first.
	{name: "one placement: kernel.Place called by the router and the cluster", in: all, match: call("Place"),
		allow: sites{"internal/router/proxy.go Router.placement": 1, "internal/cluster/cluster.go Cluster.place": 1}, exact: true},
	{name: "one placement: the cluster orders no nodes itself", in: []string{"internal/cluster"}, match: either(ident("leastLoaded", "rrNext"),
		is(func(c *at, b *ast.BinaryExpr) bool {
			return slices.Contains([]token.Token{token.LSS, token.GTR, token.LEQ, token.GEQ}, b.Op) && strings.Contains(text(b.X)+text(b.Y), "inFlight")
		}))},
	{name: "one lender rule: sharing.Pick called by the pool and the gateway", in: all, match: call("Pick"),
		allow: sites{"internal/pool/pool.go Pool.shareCandidate": 1, L + "sharing.go Gateway.leaseInstance": 1}, exact: true},
	{name: "one lender rule: no lender scan of its own", in: all, tests: true, match: ident("lendableLocked", "bestSince")},
	{name: "one reclaim rule: kernel.Reclaim called by the pool and the janitor", in: all, match: call("Reclaim"),
		allow: sites{"internal/pool/pool.go Pool.EvictOldest": 1, L + "controller.go Gateway.reclaim": 1}, exact: true},
	{name: "one reclaim rule: no water-fill or second eviction loop", in: all, tests: true, match: ident("overQuota", "makeRoom", "shrinkToCap")},

	// One retention rule. The simulator's keep-alives were three providers
	// around one expiry timer, the live janitor compared idle time with
	// its TTL itself and the simulated controller kept a retain window
	// inclusive at its end, so the paper's baselines were written twice: a
	// keep-alive window comes from a kernel rule and is applied by
	// kernel.Expired, at the pooled provider's idle check, the janitor's
	// expiry and both controllers' retain-one test.
	{name: "one retention rule: the kernel's expiry test called by the pooled provider, the janitor and the controller", in: all,
		match: call("Expired"), allow: sites{"internal/policy/policy.go KeepAlive.expire": 1,
			L + "controller.go Gateway.reclaim": 1, L + "controller.go Gateway.controlOnce": 1, "internal/core/core.go HotC.tick": 1}, exact: true},
	{name: "one retention rule: no armExpiry, windowFor or idle-time comparison of its own", in: all, out: []string{"internal/kernel/..."},
		match: either(ident("armExpiry", "windowFor", "expiring"), is(func(c *at, b *ast.BinaryExpr) bool {
			return slices.Contains([]token.Token{token.LSS, token.GTR, token.LEQ, token.GEQ}, b.Op) && isStamp(text(b.X)+" "+text(b.Y))
		}))},

	// No dead code. Three fig04 helpers outlived their last caller, and a
	// second Fig. 1 replay lived on for one test: an unexported function
	// is named in its package besides its declaration, by non-test code
	// unless it is a test's own helper.
	{name: "no dead code: an unexported function is referenced in its package", in: all, tests: true, check: unreferenced},

	// No orphan. internal/cluster/kvstore, a quorum store, outlived its
	// last importer and its tests ran on: every internal package is
	// imported by non-test code outside itself, cmd/, examples/, the root
	// façade and benchmark/adapter.go among them.
	{name: "no orphan: every internal package is imported by non-test code outside itself", in: []string{"internal/..."}, check: orphans},

	// No dead option. Settings only tests wrote kept paths production
	// never ran, such as a weighted dispatch and SLO windows shorter than
	// any daemon's: every exported field of the option structs is
	// written, as a composite-literal key or an assignment, by non-test
	// code outside its package. The package's own defaulting does not
	// count.
	{name: "no dead option: every config field is set outside its package", in: all,
		check: unset("internal/faas/live.PoolConfig", "internal/admission.Config", "internal/core.Options", "internal/pool.Options", "internal/router.Config",
			"internal/obs.SLOConfig", "internal/obs.SamplerConfig", "internal/stack.Options")},

	// No test-only export. Accessors and hand counts only tests read kept
	// a second book beside the registry (a breaker's trips, the deployment's
	// queue peak, a node's failures) and surface no program called: an
	// exported function or method outside the root façade, README's public
	// API, is named by non-test code.
	{name: "no test-only export: an exported function or method is named by non-test code", in: all, out: []string{"."},
		check: testOnly(map[string]string{
			"internal/simclock Scheduler.SetEventLimit": "a fault guard against a runaway event loop, which only tests arm",
		})},

	// Docs cite only tests that exist. The docs name the tests that pin
	// what they describe, and a test renamed or deleted left its citation
	// pointing at nothing: every backticked Test*, Fuzz* or Benchmark*
	// name in them is a function of a _test.go file, and one ending in *
	// begins one.
	{name: "docs cite only tests that exist", in: all, tests: true, check: cited("DESIGN.md", "README.md", "EXPERIMENTS.md")},

	// Layers. Every rule and family both substrates share lives in the
	// leaf kernel; hotcd linked the simulator's pool, container, core and
	// faas before, and hotc-sim the gateway, router, admission and prefork.
	{name: "layers: the live side reaches no simulator package", in: []string{"internal/faas/live", "internal/router", "cmd/hotcd", "cmd/hotc-router"},
		match: reaches(`pool|container|faas|stack|core|cluster`, true)},
	{name: "layers: the simulator reaches no live package", in: []string{"internal/stack", "internal/cluster", ".", "cmd/hotc-sim", "cmd/hotc-bench"},
		match: reaches(`faas/live|router|admission|prefork`, true)},
	{name: "layers: the kernel reaches only obs, metrics, predictor and simclock", in: []string{"internal/kernel"},
		match: reaches(`kernel|obs|metrics|predictor|simclock`, false)},

	// Declared once. Nine families were registered once per substrate and
	// drifted apart, so one registry could not host both: a family both
	// count into is declared in the kernel's books. Names match
	// hotc_[a-z_]+, as obs.Registry enforces at run time, and the tracing,
	// SLO, cold-path, sharing and wire families are a public contract. The
	// first two read past obs, whose sources mention the rule.
	{name: "declared once: no family registered at two sites", in: metrics, out: []string{"internal/obs/..."},
		check: eachFamily(func(name string, at []string) bool { return len(at) > 1 })},
	{name: "declared once: family names match hotc_[a-z_]+", in: metrics, out: []string{"internal/obs/..."},
		check: eachFamily(func(name string, at []string) bool { return !regexp.MustCompile(`^hotc_[a-z_]+$`).MatchString(name) })},
	// Read or gone. The simulated gateway observed a histogram on every
	// request that no test, doc or harness read: every family declared in
	// non-test code is named by a test (this package's own do not count), a
	// doc at the root (its generated tables do not count) or a file of the
	// harness under benchmark/.
	{name: "read or gone: every family is named by a test, a doc or the harness", in: metrics, check: unread},
	{name: "declared once: the contract's families are registered", in: []string{"cmd/...", "internal/..."}, check: func(t *tree, r row) (bad []string) {
		have := t.families(r)
		for _, name := range strings.Fields(`hotc_trace_kept_total hotc_trace_sampled_out_total hotc_trace_ring_dropped_total
			hotc_slo_burn_rate hotc_slo_bad_fraction hotc_slo_breach hotc_slo_budget hotc_build_info hotc_uptime_seconds
			hotc_coldpath_boots_total hotc_coldpath_phase_ms hotc_coldpath_generic_idle hotc_coldpath_refills_total
			hotc_coldpath_generic_reaped_total hotc_coldpath_pull_skipped_mb_total hotc_share_leases_total
			hotc_share_lenders hotc_share_renters hotc_share_boot_phase_ms hotc_wire_refusals_total hotc_wire_panics_total
			hotc_wire_body_bytes_total hotc_wire_redials_total`) {
			if have[name] == nil {
				bad = append(bad, name+" is registered nowhere")
			}
		}
		return bad
	}},
}

// wired is the row for a constructor that only stack.New calls.
func wired(what string, m func(*at) bool) row {
	return row{name: "wired once: " + what + " only in stack.New", in: all, match: m, allow: sites{"internal/stack/stack.go New": 1}, exact: true}
}

// A row is one rule: no node of its files matches, but at its allowed
// sites. A rule over the whole tree has check instead of match.
type row struct {
	name    string
	in, out []string // its files: named by in and not by out (see covers)
	tests   bool     // test files too
	match   func(c *at) bool
	allow   sites
	exact   bool // the allowed sites hold exactly their counts
	check   func(t *tree, r row) []string
}

// sites maps "file Func" to how many matches a rule allows there.
type sites = map[string]int

// A tree is every Go file under a root but benchmark/ (a module of its
// own), testdata/ and hidden directories, parsed once.
type tree struct {
	root  string
	fset  *token.FileSet
	files []*file
	deps  map[string][]string // package → module packages its non-test files import
}

type file struct {
	path, dir, pkg string // slash paths from the root, and the import path
	test           bool
	ast            *ast.File
	imports        map[string]string // the name the file uses → import path
}

func load(root string) (*tree, error) {
	t := &tree{root: root, fset: token.NewFileSet(), deps: map[string][]string{}}
	return t, filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, p)
		if rel = filepath.ToSlash(rel); err != nil || d.IsDir() && rel != "." && (rel == "benchmark" || d.Name() == "testdata" || d.Name()[0] == '.') {
			return cmp.Or(err, filepath.SkipDir)
		} else if d.IsDir() || !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := t.parse(rel)
		if err == nil {
			t.files = append(t.files, f)
			for _, ip := range f.imports {
				if !f.test && strings.HasPrefix(ip+"/", "hotc/") && !slices.Contains(t.deps[f.pkg], ip) {
					t.deps[f.pkg] = append(t.deps[f.pkg], ip)
				}
			}
		}
		return err
	})
}

// parse reads the file at rel, a slash path from the root.
func (t *tree) parse(rel string) (*file, error) {
	a, err := parser.ParseFile(t.fset, filepath.Join(t.root, rel), nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f := &file{path: rel, dir: path.Dir(rel), test: strings.HasSuffix(rel, "_test.go"), ast: a, imports: map[string]string{}}
	f.pkg = strings.TrimSuffix("hotc/"+f.dir, "/.")
	for _, s := range a.Imports {
		ip, _ := strconv.Unquote(s.Path.Value)
		if f.imports[path.Base(ip)] = ip; s.Name != nil {
			f.imports[s.Name.Name] = ip
		}
	}
	return f, nil
}

// covers reports whether r reads f: a test file only if r.tests, and
// named by r.in and not by r.out, each a file, a directory or, as
// "dir/...", a directory and all below it ("..." alone: every one).
func (r row) covers(f *file) bool {
	named := func(pats []string) bool {
		return slices.ContainsFunc(pats, func(p string) bool {
			d, below := strings.CutSuffix(p, "...")
			return below && strings.HasPrefix(f.dir+"/", d) || p == f.path || p == f.dir
		})
	}
	return (r.tests || !f.test) && named(r.in) && !named(r.out)
}

// An at is one node of a walk, and where it is.
type at struct {
	n  ast.Node
	up []ast.Node // the nodes around it, innermost last
	f  *file
	t  *tree
	fn string // the declaration it is in: "Func", "Type.Method", or a var's or type's name
}

var receiver = regexp.MustCompile(`^\*|\[.*`) // *T[K] → T

// walk calls visit on every node of the files r reads.
func (t *tree) walk(r row, visit func(c *at)) {
	for _, f := range t.files {
		if !r.covers(f) {
			continue
		}
		for _, d := range f.ast.Decls {
			c := &at{f: f, t: t}
			switch d := d.(type) {
			case *ast.FuncDecl:
				if c.fn = d.Name.Name; d.Recv != nil {
					c.fn = receiver.ReplaceAllString(text(d.Recv.List[0].Type), "") + "." + c.fn
				}
			case *ast.GenDecl:
				if s, ok := d.Specs[0].(*ast.ValueSpec); ok {
					c.fn = s.Names[0].Name
				} else if s, ok := d.Specs[0].(*ast.TypeSpec); ok {
					c.fn = s.Name.Name
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n == nil {
					c.up = c.up[:len(c.up)-1]
					return false
				}
				c.n = n
				visit(c)
				c.up = append(c.up, n)
				return true
			})
		}
	}
}

func (c *at) pos() string {
	return fmt.Sprintf("%s:%d (%s)", c.f.path, c.t.fset.Position(c.n.Pos()).Line, c.fn)
}

// run returns what breaks r in t.
func (t *tree) run(r row) []string {
	if r.check != nil {
		return r.check(t, r)
	}
	var bad []string
	count := map[string]int{}
	t.walk(r, func(c *at) {
		if site := c.f.path + " " + c.fn; r.match(c) {
			if count[site]++; r.allow[site] == 0 {
				bad = append(bad, c.pos())
			}
		}
	})
	for site, n := range r.allow {
		if got := count[site]; got > n || r.exact && got != n {
			bad = append(bad, fmt.Sprintf("%s: %d, want %d", site, got, n))
		}
	}
	return bad
}

// The matchers the table is written in.

func text(e ast.Expr) string { return types.ExprString(e) }

// is matches a node of type T for which ok holds.
func is[T ast.Node](ok func(c *at, n T) bool) func(*at) bool {
	return func(c *at) bool { n, yes := c.n.(T); return yes && ok(c, n) }
}

func either(ms ...func(*at) bool) func(*at) bool {
	return func(c *at) bool { return slices.ContainsFunc(ms, func(m func(*at) bool) bool { return m(c) }) }
}

// isSel reports whether e is pkg.Name for one of names, with pkg the
// package imported from path, whatever the file calls it.
func isSel(c *at, e ast.Expr, path string, names ...string) bool {
	s, ok := e.(*ast.SelectorExpr)
	return ok && c.f.imports[text(s.X)] == path && slices.Contains(names, s.Sel.Name)
}

func sel(path string, names ...string) func(*at) bool {
	return is(func(c *at, s *ast.SelectorExpr) bool { return isSel(c, s, path, names...) })
}

// callee is the name a call calls: f for f(), x.f() and pkg.f().
func callee(x *ast.CallExpr) string { f := text(x.Fun); return f[strings.LastIndex(f, ".")+1:] }

func call(names ...string) func(*at) bool {
	return is(func(c *at, x *ast.CallExpr) bool { return slices.Contains(names, callee(x)) })
}

func ident(names ...string) func(*at) bool {
	return is(func(c *at, x *ast.Ident) bool { return slices.Contains(names, x.Name) })
}

func hasName(ids []*ast.Ident, names ...string) bool {
	return slices.ContainsFunc(ids, func(id *ast.Ident) bool { return slices.Contains(names, id.Name) })
}

func ranges(x string) func(*at) bool {
	return is(func(c *at, r *ast.RangeStmt) bool { return text(r.X) == x })
}

// assigns matches an assignment with one of toks (token.INC for ++) to
// an expression whose text matches pat in full.
func assigns(pat string, toks ...token.Token) func(*at) bool {
	re := regexp.MustCompile("^(?:" + pat + ")$")
	to := func(e ast.Expr) bool { return re.MatchString(text(e)) }
	return func(c *at) bool {
		switch n := c.n.(type) {
		case *ast.AssignStmt:
			return slices.Contains(toks, n.Tok) && slices.ContainsFunc(n.Lhs, to)
		case *ast.IncDecStmt:
			return slices.Contains(toks, n.Tok) && to(n.X)
		}
		return false
	}
}

// bumps matches .Inc( or .Add( on an expression whose text matches pat
// in full.
func bumps(pat string) func(*at) bool {
	on := regexp.MustCompile("^(?:" + pat + ")$")
	return is(func(c *at, x *ast.CallExpr) bool {
		s, ok := x.Fun.(*ast.SelectorExpr)
		return ok && (s.Sel.Name == "Inc" || s.Sel.Name == "Add") && on.MatchString(text(s.X))
	})
}

// constant reports whether e is a literal, a package-level const, or an
// operation on them.
func (c *at) constant(e ast.Expr) bool {
	pkg, name := c.f.pkg, text(e)
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.BinaryExpr:
		return c.constant(e.X) && c.constant(e.Y)
	case *ast.SelectorExpr:
		pkg, name = c.f.imports[text(e.X)], e.Sel.Name
	}
	return slices.ContainsFunc(c.t.files, func(f *file) bool {
		return f.pkg == pkg && !f.test && slices.ContainsFunc(f.ast.Decls, func(d ast.Decl) bool {
			g, ok := d.(*ast.GenDecl)
			return ok && g.Tok == token.CONST && slices.ContainsFunc(g.Specs, func(s ast.Spec) bool { return hasName(s.(*ast.ValueSpec).Names, name) })
		})
	})
}

// reaches matches an import through which the file's package reaches a
// module package under internal/ that pkgs names (in), or that it does
// not (!in).
func reaches(pkgs string, in bool) func(*at) bool {
	named := regexp.MustCompile(`^hotc/internal/(` + pkgs + `)$`).MatchString
	bad := func(p string) bool { return strings.HasPrefix(p, "hotc/") && named(p) == in }
	return is(func(c *at, s *ast.ImportSpec) bool {
		p, _ := strconv.Unquote(s.Path.Value)
		return bad(p) || c.t.reaches(p, bad)
	})
}

// reaches reports whether package from imports a package for which is
// holds, directly or through module packages.
func (t *tree) reaches(from string, is func(string) bool) bool {
	seen := map[string]bool{}
	var reach func(p string) bool
	reach = func(p string) bool {
		seen[p] = true
		return slices.ContainsFunc(t.deps[p], func(q string) bool { return is(q) || !seen[q] && reach(q) })
	}
	return reach(from)
}

// unset reports each exported field of the named structs ("dir.Type")
// that no file r reads outside dir writes: as a key of a composite
// literal of the struct or of an alias of it, or as a selector assigned
// to or whose address is taken (a flag bound to the field with
// flag.IntVar(&cfg.F, ...)) in a package that reaches dir. A struct the
// tree lacks is reported too.
func unset(structs ...string) func(*tree, row) []string {
	return func(t *tree, r row) (bad []string) {
		for _, s := range structs {
			dir, typ, _ := strings.Cut(s, ".")
			pkg := "hotc/" + dir
			written := map[string]bool{}                    // field → written
			names := map[string]bool{pkg + " " + typ: true} // "pkg Name" of the struct and its aliases
			for _, f := range t.files {
				if f.test {
					continue
				}
				ast.Inspect(f.ast, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSpec)
					if ok && ts.Assign.IsValid() && isSel(&at{f: f}, ts.Type, pkg, typ) {
						names[f.pkg+" "+ts.Name.Name] = true
					}
					if ok && f.dir == dir && ts.Name.Name == typ {
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								for _, id := range fl.Names {
									if id.IsExported() {
										written[id.Name] = false
									}
								}
							}
						}
					}
					return true
				})
			}
			if len(written) == 0 {
				bad = append(bad, s+": no such struct")
				continue
			}
			mark := func(name string) {
				if _, ok := written[name]; ok {
					written[name] = true
				}
			}
			// named reports whether e spells the struct or an alias of it.
			named := func(c *at, e ast.Expr) bool {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					return names[c.f.imports[text(sel.X)]+" "+sel.Sel.Name]
				}
				return names[c.f.pkg+" "+text(e)]
			}
			t.walk(r, func(c *at) {
				if c.f.dir == dir {
					return
				}
				switch n := c.n.(type) {
				case *ast.CompositeLit:
					if named(c, n.Type) {
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								mark(text(kv.Key))
							}
						}
					}
				case *ast.AssignStmt:
					if !c.t.reaches(c.f.pkg, func(p string) bool { return p == pkg }) {
						return
					}
					for _, l := range n.Lhs {
						// o.Pool.MaxLive = n writes Pool and MaxLive.
						for sel, ok := l.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
							mark(sel.Sel.Name)
						}
					}
				case *ast.UnaryExpr:
					if n.Op != token.AND || !c.t.reaches(c.f.pkg, func(p string) bool { return p == pkg }) {
						return
					}
					for sel, ok := n.X.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
						mark(sel.Sel.Name)
					}
				}
			})
			for name, ok := range written {
				if !ok {
					bad = append(bad, s+"."+name+" is set by no non-test code outside "+dir)
				}
			}
		}
		return bad
	}
}

// testOnly reports each exported function or method of r's non-test
// files that no non-test file of the tree, benchmark/adapter.go (the
// harness's one import site) or examples/ names: a function as pkg.Name,
// or Name in its own package; a method as .Name anywhere, or by an
// interface method of its name, the tree's or std's. except maps a
// directory, or "dir Type.Method", to why it may keep such exports.
func testOnly(except map[string]string) func(*tree, row) []string {
	std := strings.Fields("Error String Unwrap ServeHTTP Read Write Close MarshalJSON UnmarshalJSON") // the standard library calls these through its interfaces
	return func(t *tree, r row) (bad []string) {
		files := slices.Clone(t.files)
		if f, err := t.parse("benchmark/adapter.go"); err == nil {
			files = append(files, f)
		}
		named := map[string]int{}     // "pkg Name" for a function, ".Name" for a method
		skip := map[*ast.Ident]bool{} // declared names and selected ones
		for _, f := range files {
			if f.test {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					skip[n.Name] = true
				case *ast.SelectorExpr:
					if skip[n.Sel] = true; f.imports[text(n.X)] != "" {
						named[f.imports[text(n.X)]+" "+n.Sel.Name]++
					} else {
						named["."+n.Sel.Name]++
					}
				case *ast.Ident:
					if !skip[n] {
						named[f.pkg+" "+n.Name]++
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							named["."+id.Name]++
						}
					}
				}
				return true
			})
		}
		for _, m := range std {
			named["."+m]++
		}
		t.walk(r, func(c *at) {
			d, ok := c.n.(*ast.FuncDecl)
			if !ok || !d.Name.IsExported() || except[c.f.dir] != "" || except[c.f.dir+" "+c.fn] != "" {
				return
			}
			if d.Recv == nil && named[c.f.pkg+" "+d.Name.Name] == 0 || d.Recv != nil && named["."+d.Name.Name] == 0 {
				bad = append(bad, c.pos()+" is named by tests only")
			}
		})
		return bad
	}
}

// unreferenced reports each unexported function (not a method, init
// or main) of r's files whose name no other identifier of its directory
// spells: of a non-test file for a function of a non-test file, of any
// file for a test's helper.
func unreferenced(t *tree, r row) (bad []string) {
	// "dir name" → identifiers spelling it, declarations included: in
	// non-test files, and in all.
	prod, refs := map[string]int{}, map[string]int{}
	type decl struct {
		pos  string
		test bool
	}
	decls := map[string]decl{}
	t.walk(r, func(c *at) {
		if id, ok := c.n.(*ast.Ident); ok {
			if refs[c.f.dir+" "+id.Name]++; !c.f.test {
				prod[c.f.dir+" "+id.Name]++
			}
		}
		if d, ok := c.n.(*ast.FuncDecl); ok && d.Recv == nil && !ast.IsExported(d.Name.Name) && !slices.Contains([]string{"init", "main", "_"}, d.Name.Name) {
			decls[c.f.dir+" "+d.Name.Name] = decl{c.pos(), c.f.test}
		}
	})
	for key, d := range decls {
		if !d.test && prod[key] == 1 || d.test && refs[key] == 1 {
			bad = append(bad, d.pos)
		}
	}
	return bad
}

// orphans reports each package of r's files that no non-test file of
// another package, nor benchmark/adapter.go, imports.
func orphans(t *tree, r row) (bad []string) {
	imported := map[string]bool{}
	for _, deps := range t.deps {
		for _, p := range deps {
			imported[p] = true
		}
	}
	if f, err := t.parse("benchmark/adapter.go"); err == nil {
		for _, p := range f.imports {
			imported[p] = true
		}
	}
	for _, f := range t.files {
		if r.covers(f) && !imported[f.pkg] {
			imported[f.pkg] = true // reported once
			bad = append(bad, f.dir+" is imported by no non-test code outside it")
		}
	}
	return bad
}

// unread reports each family declared in r's files that no _test.go file
// outside this package, no doc at the tree's root outside its generated
// tables and no .go, .sh or .md file under benchmark/ names, as itself
// or as a histogram's _bucket, _sum or _count series.
var generated = regexp.MustCompile(`(?s)<!-- generated: [^>]*-->.*?<!-- end: [^>]*-->`)

func unread(t *tree, r row) (bad []string) {
	var corpus []byte
	read := func(p string) {
		b, _ := os.ReadFile(p)
		corpus = append(corpus, b...)
	}
	for _, f := range t.files {
		if f.test && f.dir != "internal/archtest" {
			read(filepath.Join(t.root, f.path))
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		b, _ := os.ReadFile(filepath.Join(t.root, doc))
		corpus = append(corpus, generated.ReplaceAll(b, nil)...) // a table rendered from the code reads nothing
	}
	filepath.WalkDir(filepath.Join(t.root, "benchmark"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && slices.Contains([]string{".go", ".sh", ".md"}, filepath.Ext(p)) {
			read(p)
		}
		return nil
	})
	for name, at := range t.families(r) {
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `(_bucket|_sum|_count)?\b`).Match(corpus) {
			bad = append(bad, name+" is named by no test, doc or harness file: "+strings.Join(at, ", "))
		}
	}
	return bad
}

// cited reports each backticked Test*, Fuzz* or Benchmark* name in the
// docs at the tree's root that names no function of r's test files, or
// with a trailing * begins none.
func cited(docs ...string) func(*tree, row) []string {
	span := regexp.MustCompile("(?s)```.*?```|`[^`]*`")
	name := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)\w*\*?`)
	return func(t *tree, r row) (bad []string) {
		var funcs []string
		for _, f := range t.files {
			if f.test && r.covers(f) {
				for _, d := range f.ast.Decls {
					if d, ok := d.(*ast.FuncDecl); ok && d.Recv == nil {
						funcs = append(funcs, d.Name.Name)
					}
				}
			}
		}
		for _, doc := range docs {
			b, err := os.ReadFile(filepath.Join(t.root, doc))
			if err != nil {
				bad = append(bad, err.Error())
			}
			for _, s := range span.FindAllString(string(b), -1) {
				for _, n := range name.FindAllString(s, -1) {
					prefix, glob := strings.CutSuffix(n, "*")
					if !slices.ContainsFunc(funcs, func(f string) bool { return f == n || glob && strings.HasPrefix(f, prefix) }) {
						bad = append(bad, doc+" cites "+n)
					}
				}
			}
		}
		return bad
	}
}

// families maps each metric family a registry constructor declares in
// r's files, by a string first argument, to the sites that declare it.
func (t *tree) families(r row) map[string][]string {
	sites := map[string][]string{}
	ctor := regexp.MustCompile(`\.(Counter|Gauge|Histogram)(Vec)?$`)
	t.walk(r, func(c *at) {
		if x, ok := c.n.(*ast.CallExpr); ok && len(x.Args) > 0 && ctor.MatchString(text(x.Fun)) {
			if lit, ok := x.Args[0].(*ast.BasicLit); ok && lit.Value[0] == '"' {
				name, _ := strconv.Unquote(lit.Value)
				sites[name] = append(sites[name], c.pos())
			}
		}
	})
	return sites
}

// eachFamily is a check that reports every family for which bad holds.
func eachFamily(bad func(name string, at []string) bool) func(*tree, row) []string {
	return func(t *tree, r row) (out []string) {
		for name, at := range t.families(r) {
			if bad(name, at) {
				out = append(out, name+": "+strings.Join(at, ", "))
			}
		}
		return out
	}
}

func TestTreeKeepsTheRules(t *testing.T) {
	tr, err := load("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if bad := tr.run(r); len(bad) > 0 {
			slices.Sort(bad)
			t.Errorf("%s:\n\t%s", r.name, strings.Join(bad, "\n\t"))
		}
	}
}

// Every rule reports the tree under testdata/ named after it, and every
// tree there is some rule's.
func TestEachRuleFiresOnItsFixture(t *testing.T) {
	dirs, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	unused := map[string]bool{}
	for _, d := range dirs {
		unused[d.Name()] = true
	}
	for _, r := range rules {
		dir := strings.Trim(regexp.MustCompile(`[^a-z0-9]+`).ReplaceAllString(strings.ToLower(r.name), "-"), "-")
		delete(unused, dir)
		if tr, err := load(filepath.Join("testdata", dir)); err != nil || len(tr.run(r)) == 0 {
			t.Errorf("%s: reports nothing on testdata/%s (%v)", r.name, dir, err)
		}
	}
	for dir := range unused {
		t.Errorf("testdata/%s belongs to no rule", dir)
	}
}
