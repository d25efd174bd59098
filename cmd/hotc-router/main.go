// Command hotc-router runs the HotC multi-node front tier: an HTTP
// router that places function invocations across a fleet of hotcd
// nodes by consistent hashing on the function key, biased towards
// nodes advertising warm instances so requests keep landing where
// their runtimes are already alive.
//
// Usage:
//
//	hotcd -addr 127.0.0.1:8081 &
//	hotcd -addr 127.0.0.1:8082 &
//	hotc-router -addr 127.0.0.1:8080 -nodes 127.0.0.1:8081,127.0.0.1:8082
//
// Then drive it exactly like a single hotcd:
//
//	curl -XPOST localhost:8080/system/functions \
//	     -d '{"name":"up","handler":"upper","coldStartMs":400}'   # fans out to every node
//	curl -XPOST localhost:8080/function/up -d 'hello'             # routed placement
//	curl localhost:8080/system/nodes                              # membership + health + warmth
//
// Membership is dynamic: POST /system/nodes {"url":"..."} joins a
// node (replaying routed deployments to it), DELETE /system/nodes?url=
// leaves, POST /system/drain?url= drains a node losslessly before
// maintenance. The X-Hotc-Node response header names the node that
// served each request; X-Hotc-Router-Attempts counts placements tried.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hotc/internal/router"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		nodes     = flag.String("nodes", "", "comma-separated hotcd base URLs (e.g. 127.0.0.1:8081,127.0.0.1:8082)")
		policy    = flag.String("policy", "warm", "placement policy: warm (warm-affinity over a consistent-hash ring) or rr (round-robin baseline)")
		vnodes    = flag.Int("vnodes", router.DefaultVNodes, "virtual nodes per member on the hash ring")
		poll      = flag.Duration("poll-interval", 500*time.Millisecond, "stats-poll/health-probe period")
		misses    = flag.Int("probe-failures", 3, "consecutive missed probes before a node is unhealthy")
		attempts  = flag.Int("max-attempts", 3, "placement attempts per request: first choice plus spills")
		spillBody = flag.Int64("spill-max-body", 1<<20, "largest body buffered for replay on spill; larger bodies stream to the first candidate only")
	)
	flag.Parse()

	// 0 selects a flag's default; a negative value means nothing.
	for _, f := range []struct {
		name  string
		value int64
	}{
		{"vnodes", int64(*vnodes)}, {"poll-interval", int64(*poll)}, {"probe-failures", int64(*misses)},
		{"max-attempts", int64(*attempts)}, {"spill-max-body", *spillBody},
	} {
		if f.value < 0 {
			fmt.Fprintf(os.Stderr, "hotc-router: -%s must not be negative (0 selects the default)\n", f.name)
			os.Exit(2)
		}
	}

	var urls []string
	for _, u := range strings.Split(*nodes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "hotc-router: -nodes requires at least one hotcd URL")
		os.Exit(2)
	}

	rt, err := router.New(router.Config{
		Nodes:         urls,
		Policy:        router.Policy(*policy),
		VNodes:        *vnodes,
		PollInterval:  *poll,
		ProbeFailures: *misses,
		MaxAttempts:   *attempts,
		SpillMaxBody:  *spillBody,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotc-router:", err)
		os.Exit(2)
	}
	base, err := rt.StartOn(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotc-router:", err)
		os.Exit(1)
	}
	defer rt.Stop()

	fmt.Printf("hotc-router listening on %s\n", base)
	// The banner reports the resolved configuration, not the raw flags.
	cfg := rt.Config()
	fmt.Printf("policy: %s (vnodes=%d max-attempts=%d)\n", cfg.Policy, cfg.VNodes, cfg.MaxAttempts)
	fmt.Printf("members: %d (poll=%v unhealthy after %d misses)\n", len(urls), cfg.PollInterval, cfg.ProbeFailures)
	for _, st := range rt.Nodes() {
		state := "healthy"
		if !st.Healthy {
			state = "unreachable"
		}
		fmt.Printf("  %s (%s, %d warm)\n", st.URL, state, st.WarmTotal)
	}
	fmt.Println("invoke: POST /function/<name>; deploy fan-out: POST /system/functions")
	fmt.Println("membership: GET/POST/DELETE /system/nodes; drain: POST/DELETE /system/drain?url=")
	fmt.Println("metrics: GET /metrics (hotc_router_*)")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nhotc-router: shutting down")
}
