// Web QR over real sockets: a live HTTP gateway and its warm pool
// (the paper's Fig. 9 web application), serving an actual URL-to-text
// "QR" encoding function. The same function is served twice — once
// with a cold start per request and once with runtime reuse
// (HotC-style) — and the measured wall-clock latencies are printed.
//
// Unlike the other examples this one exercises the real network stack:
// every request crosses a real TCP connection to the gateway, which runs
// the function in process (its default backend; the socket backend adds
// a second connection, gateway -> watchdog).
//
// Run with:
//
//	go run ./examples/webqr
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"hotc/internal/faas/live"
)

// qrEncode is a stand-in QR encoder: it renders the URL into a tiny
// deterministic ASCII matrix (a real deployment would produce a PNG).
func qrEncode(_ context.Context, body []byte) ([]byte, error) {
	url := strings.TrimSpace(string(body))
	if url == "" {
		return nil, fmt.Errorf("empty url")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "QR(%s)\n", url)
	h := 0
	for _, c := range url {
		h = h*31 + int(c)
	}
	for row := 0; row < 8; row++ {
		for col := 0; col < 8; col++ {
			if (h>>(uint(row*8+col)%31))&1 == 1 {
				b.WriteString("##")
			} else {
				b.WriteString("  ")
			}
		}
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

func run(reuse bool, requests int) {
	label := "cold-start per request"
	if reuse {
		label = "HotC-style runtime reuse"
	}
	g := live.New(live.PoolConfig{})
	fn := live.Function{
		Name:      "url2qr",
		Handler:   qrEncode,
		ColdStart: 400 * time.Millisecond, // container boot + runtime + app init
	}
	if err := g.Register(fn); err != nil {
		log.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer g.Stop()

	fmt.Printf("--- %s ---\n", label)
	var total time.Duration
	for i := 0; i < requests; i++ {
		if !reuse {
			// A redeploy drains the warm pool, so this request boots.
			if err := g.Register(fn); err != nil {
				log.Fatal(err)
			}
		}
		url := fmt.Sprintf("https://example.org/page/%d", i)
		t0 := time.Now()
		resp, err := http.Post(base+"/function/url2qr", "text/plain", strings.NewReader(url))
		if err != nil {
			log.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Fatalf("request %d failed: %v (%d) %s", i, err, resp.StatusCode, body)
		}
		lat := time.Since(t0)
		total += lat
		fmt.Printf("request %2d: %8.1fms  reused=%s\n",
			i+1, float64(lat)/float64(time.Millisecond), resp.Header.Get("X-Hotc-Reused"))
	}
	st := g.Stats()
	fmt.Printf("mean %.1fms over %d requests (%d cold starts)\n\n",
		float64(total)/float64(requests)/float64(time.Millisecond), st.Requests, st.ColdStarts)
}

func main() {
	const requests = 8
	run(false, requests)
	run(true, requests)
	fmt.Println("With reuse, only the first request pays the watchdog boot — the Fig. 9 effect on a real network stack.")
}
