package router

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hotc/internal/faas/live"
)

// A node's hop-by-hop reply fields describe its connection to the
// router, not the client's: Connection, Keep-Alive and what Connection
// names stay behind, and a node closing its own connection leaves the
// client's open for the next request.
func TestRoutedReplyDropsHopByHopFields(t *testing.T) {
	srv, _ := countingNode(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/system/stats" {
			io.WriteString(w, "{}")
			return
		}
		io.Copy(io.Discard, r.Body)
		h := w.Header()
		h.Set("Connection", "close, X-Private")
		h.Set("Keep-Alive", "timeout=5")
		h.Set("X-Private", "node only")
		h.Set("X-Kept", "yes")
		io.WriteString(w, "ok")
	})
	_, base := startRouter(t, Config{Nodes: []string{srv.URL}})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i := 0; i < 2; i++ {
		var reused bool
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/function/fn", strings.NewReader("x"))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(b) != "ok" || resp.Header.Get("X-Kept") != "yes" {
			t.Fatalf("request %d: %d %q, X-Kept %q", i, resp.StatusCode, b, resp.Header.Get("X-Kept"))
		}
		for _, k := range []string{"Connection", "Keep-Alive", "X-Private"} {
			if v, ok := resp.Header[k]; ok {
				t.Errorf("request %d: the client got the node's %s: %q", i, k, v)
			}
		}
		if i == 1 && !reused {
			t.Error("the second request needed a new connection: the node's Connection: close closed the client's")
		}
	}
}

// Stop gives a request in flight its grace, then closes the client's
// connection, which ends the request's context: a request held at a
// node that never answers comes back canceled, and neither its
// upstream connection nor a goroutine outlives it.
func TestRouterStopWithHungNodeLeaksNothing(t *testing.T) {
	holding := make(chan struct{}, 1)
	srv, open := countingNode(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/system/stats" {
			io.WriteString(w, "{}")
			return
		}
		io.Copy(io.Discard, r.Body) // net/http watches for a hang-up once the body is read
		holding <- struct{}{}
		<-r.Context().Done() // answers nothing until the router hangs up
	})
	goroutines := runtime.NumGoroutine()
	rt, err := New(Config{Nodes: []string{srv.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base, err := rt.Start()
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	answered := make(chan error, 1)
	go func() {
		resp, err := client.Post(base+"/function/fn", "text/plain", strings.NewReader("x"))
		if err == nil {
			resp.Body.Close()
		}
		answered <- err
	}()
	<-holding
	start := time.Now()
	rt.Stop()
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Stop took %v, want its 1s grace plus slack", took)
	}
	if err := <-answered; err == nil {
		t.Error("the client got an answer the hung node never gave")
	}
	client.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); rt.mRequests.With("canceled").Value() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(`the held request never came back as outcome="canceled"`)
		}
	}
	waitOpen(t, open, 0, "after Stop")
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before Start", runtime.NumGoroutine(), goroutines)
		}
	}
}

// syscr reads the process's count of read(2)-family system calls.
func syscr(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	t.Skip("no syscr in /proc/self/io")
	return 0
}

// A warm routed 64 B echo — client, router, gateway and watchdog in
// this process — is answered well inside the front doors' watch delay,
// so neither front door spends a read on a disconnect watch: fewer than
// 13 reads a request, where watching every request took about 14.
func TestRoutedEchoReadsNoWatch(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/self/io is Linux's")
	}
	_, n1 := startNode(t, live.PoolConfig{})
	_, n2 := startNode(t, live.PoolConfig{})
	_, base := startRouter(t, Config{Nodes: []string{n1, n2}})
	deployVia(t, base, "echo", "echo", 0)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	payload := strings.Repeat("e", 64)
	echo := func() {
		resp, err := client.Post(base+"/function/echo", "application/octet-stream", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(b) != payload {
			t.Fatalf("echo: %d %q, %v", resp.StatusCode, b, err)
		}
	}
	for i := 0; i < 10; i++ {
		echo() // the cold boots and every connection
	}
	const n = 200
	r0 := syscr(t)
	for i := 0; i < n; i++ {
		echo()
	}
	if per := float64(syscr(t)-r0) / n; per >= 13 {
		t.Errorf("%.2f reads per routed echo, want < 13", per)
	} else {
		t.Logf("%.2f reads per routed echo", per)
	}
}
