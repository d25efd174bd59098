package live

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// procIO reads the process's rchar and wchar: bytes read and written by
// system calls, which bytes spliced socket to socket never reach.
func procIO(t *testing.T) (rchar, wchar int64) {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "rchar":
			rchar = n
		case "wchar":
			wchar = n
		}
	}
	return rchar, wchar
}

// A 1 MiB echo through a started gateway crosses the node in the kernel:
// the process's read and write counts each grow by the client's own
// 1 MiB and the heads, where copying through user space on the three
// relay legs (client → gateway → watchdog → gateway → client) reads and
// writes about 4 MiB of each.
func TestLargeRelayStaysInKernel(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("splice(2) is Linux's")
	}
	g := New(PoolConfig{Backend: BackendSocket, TraceSampleRate: 1})
	echo, _ := g.builtinFunction("echo")
	echo.Name = "echo"
	if err := g.Register(echo); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	payload := patternedPayload(1 << 20)
	send := func() {
		resp, err := http.Post(base+"/function/echo", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || !bytes.Equal(got, payload) {
			t.Fatalf("echo: %d, %d bytes, %v", resp.StatusCode, len(got), err)
		}
	}
	send() // the cold boot and the client's connection
	r0, w0 := procIO(t)
	send()
	r1, w1 := procIO(t)
	const bound = 3 << 19 // 1.5 MiB
	if r1-r0 >= bound || w1-w0 >= bound {
		t.Errorf("one 1 MiB echo read %d and wrote %d bytes in user space, want each < %d", r1-r0, w1-w0, bound)
	}
}

// Every body a hop endpoint sends is counted once, under the role that
// sent it and the way it went: a 1 MiB echo moves
// hotc_wire_body_bytes_total{path="spliced"} by its bytes once for each
// leg a role spliced it on — on a socket the gateway's request to its
// watchdog and its reply to the client, and the watchdog's reply; in
// process the gateway's reply — and a 64 B echo moves {path="copied"}
// alike, each leaving the other path where it was.
func TestWireBodyBytesByPath(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("splice(2) is Linux's")
	}
	onBackends(t, func(t *testing.T, backend string) {
		g, base := startDaemon(t, PoolConfig{Backend: backend})
		if err := g.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
			t.Fatal(err)
		}
		send := func(n int) {
			payload := patternedPayload(n)
			resp, err := http.Post(base+"/function/echo", "application/octet-stream", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 || !bytes.Equal(got, payload) {
				t.Fatalf("echo: %d, %d bytes, %v", resp.StatusCode, len(got), err)
			}
		}
		legs := map[string]float64{"gateway": 2, "watchdog": 1}
		if backend == BackendInProcess {
			legs = map[string]float64{"gateway": 1, "watchdog": 0}
		}
		paths := []string{"copied", "spliced"}
		books := func() map[string]float64 {
			m := map[string]float64{}
			for role := range legs {
				for _, path := range paths {
					m[role+" "+path] = metricSum(t, g.reg, "hotc_wire_body_bytes_total", role, path)
				}
			}
			return m
		}
		send(64) // the cold boot and the client's connection
		for _, tc := range []struct {
			size int
			path string
		}{{64, "copied"}, {1 << 20, "spliced"}} {
			before := books()
			send(tc.size)
			after := books()
			for role, n := range legs {
				for _, path := range paths {
					want := 0.0
					if path == tc.path {
						want = n * float64(tc.size)
					}
					if moved := after[role+" "+path] - before[role+" "+path]; moved != want {
						t.Errorf("a %d B echo moved {role=%q,path=%q} by %v, want %v", tc.size, role, path, moved, want)
					}
				}
			}
		}
	})
}

// Two requests in one write: the disconnect watch, which starts once the
// first request's body is read, takes the second request's first byte,
// and the front door still answers both, in order — the second as the
// GET it is (without its first byte it would be a method nobody serves).
func TestFrontPipelinedRequests(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The first body is larger than the reader's buffer, so it ends on a
	// read of the socket's own and the second request is still in it
	// when the watch reads.
	first := patternedPayload(64 << 10)
	var req bytes.Buffer
	fmt.Fprintf(&req, "POST /function/echo HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n", len(first))
	req.Write(first)
	req.WriteString("GET /system/functions HTTP/1.1\r\nHost: h\r\n\r\n")
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for i, want := range [][]byte{first, []byte(`["echo"]` + "\n")} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 || !bytes.Equal(got, want) {
			t.Fatalf("reply %d: %d, %d bytes %.40q (want %d), %v", i, resp.StatusCode, len(got), got, len(want), err)
		}
	}
}

// A reply that leaves its body unread — a 404 for a 1 MiB upload —
// reads at most 256 KiB of it, then closes the connection rather than
// read the rest, as net/http's server did.
func TestFrontDrainsUnreadBodyThenCloses(t *testing.T) {
	g := New(PoolConfig{Backend: BackendSocket})
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r0, _ := procIO(t)
	const size = 1 << 20
	fmt.Fprintf(conn, "POST /function/nope HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n", size)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		conn.Write(make([]byte, size)) // fails once the gateway closes
	}()
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNotFound || !resp.Close {
		t.Fatalf("reply %d, close %v; want 404 and a close", resp.StatusCode, resp.Close)
	}
	if n, err := br.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("the connection stayed open: read %d, %v", n, err)
	}
	r1, _ := procIO(t)
	if read := r1 - r0; read > 264<<10 {
		t.Errorf("the gateway read %d bytes of a body nobody wanted, want at most 256 KiB and its buffer", read)
	}
	conn.Close()
	<-wrote
}

// A watchdog's hop-by-hop reply fields describe its connection to the
// gateway, not the client's: Connection, Keep-Alive and what Connection
// names stay behind, and a watchdog closing its own connection (as one
// does in its Stop grace) leaves the client's open for the next request.
func TestFrontDropsWatchdogHopByHopFields(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				req, err := http.ReadRequest(bufio.NewReader(conn))
				if err != nil {
					return
				}
				io.Copy(io.Discard, req.Body)
				io.WriteString(conn, "HTTP/1.1 200 OK\r\nConnection: close, X-Private\r\nKeep-Alive: timeout=5\r\n"+
					"X-Private: watchdog only\r\nX-Kept: yes\r\nContent-Length: 2\r\n\r\nok")
			}()
		}
	}()
	g := New(PoolConfig{Backend: BackendSocket})
	// Every instance's connection goes to the scripted watchdog.
	g.dial = func(ctx context.Context, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", lis.Addr().String())
	}
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i := 0; i < 2; i++ {
		var reused bool
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/function/f", strings.NewReader("x"))
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
				t.Errorf("request %d: the client got the watchdog's %s: %q", i, k, v)
			}
		}
		if i == 1 && !reused {
			t.Error("the second request needed a new connection: the watchdog's Connection: close closed the client's")
		}
	}
}

// A head the front door refuses before any handler runs counts once in
// hotc_wire_refusals_total{role="gateway"}, under its own reason.
func TestFrontCountsRefusals(t *testing.T) {
	g, base := startDaemon(t, PoolConfig{})
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(conn, "POST /function/x HTTP/1.1\r\nHost: h\r\nExpect: 200-ok\r\nContent-Length: 1\r\n\r\nx")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil) // counted before the reply is written
	if err != nil || resp.StatusCode != http.StatusExpectationFailed {
		t.Fatalf("an unsupported Expect: %v, %v; want 417", resp, err)
	}
	if n := metricSum(t, g.Registry(), "hotc_wire_refusals_total", "gateway"); n != 1 {
		t.Fatalf("refusals = %v, want 1", n)
	}
	if n := metricSum(t, g.Registry(), "hotc_wire_refusals_total", "gateway", "expect"); n != 1 {
		t.Fatalf("expect refusals = %v, want 1", n)
	}
}

// panicNow is a clock whose next reading, once armed, panics: the
// gateway's own handler panics where it first reads the time.
type panicNow struct {
	clock
	armed atomic.Bool
}

func (c *panicNow) Now() time.Time {
	if c.armed.CompareAndSwap(true, false) {
		panic("gateway bug")
	}
	return c.clock.Now()
}

// A handler panic counts once in hotc_wire_panics_total, under the role
// of the server it happened in, on either backend: a function's under
// its watchdog's — the socket watchdog's server, or the in-process
// exchange that recovers it — and the gateway's own under its front
// door's. The other role's series does not move.
func TestWirePanicsCountOnce(t *testing.T) {
	onBackends(t, func(t *testing.T, backend string) {
		for _, role := range []string{"watchdog", "gateway"} {
			t.Run(role, func(t *testing.T) {
				g := New(PoolConfig{Backend: backend, ControlInterval: time.Hour, ReapInterval: time.Hour})
				clk := &panicNow{clock: g.clock}
				g.clock = clk
				if err := g.Register(Function{Name: "f", Handler: func(context.Context, []byte) ([]byte, error) { panic("function bug") }}); err != nil {
					t.Fatal(err)
				}
				base, err := g.Start()
				if err != nil {
					t.Fatal(err)
				}
				defer g.Stop()
				clk.armed.Store(role == "gateway")
				resp, err := http.Post(base+"/function/f", "text/plain", strings.NewReader("x"))
				switch {
				case role == "gateway" && err == nil:
					resp.Body.Close()
					t.Fatalf("a panicking gateway answered %d", resp.StatusCode)
				case role == "watchdog" && err != nil:
					t.Fatal(err)
				case role == "watchdog":
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadGateway {
						t.Fatalf("a panicking function was answered %d, want 502", resp.StatusCode)
					}
				}
				for _, r := range []string{"watchdog", "gateway"} {
					want := 0.0
					if r == role {
						want = 1
					}
					if got := metricSum(t, g.reg, "hotc_wire_panics_total", r); got != want {
						t.Errorf("hotc_wire_panics_total{role=%q} = %v, want %v", r, got, want)
					}
				}
			})
		}
	})
}

// syscw reads the process's count of write(2)-family system calls.
func syscw(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	t.Skip("no syscw in /proc/self/io")
	return 0
}

// A warm 64 B echo — client and gateway in this process — costs the
// client's one write and the gateway's reply in process, about 2
// write(2) a request; on the socket backend the watchdog leg adds the
// gateway's write to its watchdog and the watchdog's reply, about 4.
// In process it is at most half the socket's count, each rounded to a
// whole write: the runtime's own writes add a few hundredths.
func TestWarmWritesPerRequest(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/self/io is Linux's")
	}
	per := map[string]float64{}
	onBackends(t, func(t *testing.T, backend string) {
		g := New(PoolConfig{Backend: backend})
		echo, _ := g.builtinFunction("echo")
		echo.Name = "echo"
		if err := g.Register(echo); err != nil {
			t.Fatal(err)
		}
		base, err := g.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer g.Stop()
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		payload := strings.Repeat("e", 64)
		call := func() {
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
			call() // the cold boot and every connection
		}
		const n = 500
		w0 := syscw(t)
		for i := 0; i < n; i++ {
			call()
		}
		per[backend] = float64(syscw(t)-w0) / n
		t.Logf("%.2f writes per warm echo", per[backend])
	})
	socket, inProcess := math.Round(per[BackendSocket]), math.Round(per[BackendInProcess])
	if socket == 0 || inProcess == 0 {
		return // a backend was skipped
	}
	if inProcess > 2 || 2*inProcess > socket {
		t.Errorf("%.0f writes per warm echo in process, %.0f on a socket: want at most 2 and at most half", inProcess, socket)
	}
}
