package hop

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// stopGrace is how long Stop waits for requests being served before it
// closes their connections, as long as net/http's Shutdown got from the
// gateway.
const stopGrace = time.Second

// Server is the hop's server, one for both roles: an accept loop that
// answers each connection on a goroutine of its own, the set of open
// connections, and Stop. A watchdog runs one per instance; the gateway
// and the router each run one in the front-door role.
//
// A connection's requests are answered one at a time, until the peer
// closes it, a request is refused or a reply must end it. The request a
// handler gets, its Header and its Body are the connection's own and
// valid only until the handler returns. The body reads full duplex,
// before or after the reply starts; whatever the handler leaves unread
// is read to the message boundary after it returns. A handler panic
// closes the connection and is logged unless it is
// http.ErrAbortHandler. A head framed two ways, or that another parser
// would read differently, is refused with a status and a close, and the
// refusal hook (OnRefusal) hears why.
//
// In the front-door role a Server owes its clients what net/http's
// server gave them and the internal leg does without: each request's
// context ends when the handler returns or the client goes away (a read
// on the connection once the body is read and the request has run
// 1 ms, while the handler runs);
// the reply carries a Date and, when the handler set none, a sniffed
// Content-Type; and a body the handler left unread is read up to
// 256 KiB, past which the connection closes instead.
type Server struct {
	// Handler answers every request.
	Handler http.Handler
	// Front selects the front-door role.
	Front bool

	maxBody  atomic.Int64
	stopping atomic.Bool
	refused  func(reason string)
	panicked func()
	bodies   func(copied, spliced int64)

	mu      sync.Mutex
	lis     net.Listener
	done    chan struct{} // closes when Serve returns
	conns   map[*server]struct{}
	serving sync.WaitGroup
}

// LimitBodies bounds every request body read on a connection accepted
// from now on at n bytes (0: unbounded): a handler reading past it gets
// *http.MaxBytesError, and the connection closes after the reply.
func (s *Server) LimitBodies(n int64) { s.maxBody.Store(n) }

// OnRefusal has f called, before Serve, with the reason for each head
// the server refuses unserved: both_framings, two_lengths, coding (a
// transfer coding other than chunked), host (a missing or duplicate
// Host), expect (an Expect other than 100-continue), chunked_http10,
// head_too_large (over 1 MiB) or malformed.
func (s *Server) OnRefusal(f func(reason string)) { s.refused = f }

// OnPanic has f called, before Serve, once for each handler panic the
// server recovers and logs: every one but http.ErrAbortHandler, the
// deliberate abort.
func (s *Server) OnPanic(f func()) { s.panicked = f }

// OnBody has f called, before Serve, after each reply whose body sent
// any byte, with the body bytes sent: spliced, moved in the kernel from
// another socket (a segment the reader already held rides along), and
// copied, written from user space.
func (s *Server) OnBody(f func(copied, spliced int64)) { s.bodies = f }

// Serve accepts connections on lis until it fails, or until Stop, when
// it returns nil.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.stopping.Load() {
		s.mu.Unlock()
		lis.Close()
		return nil
	}
	s.lis, s.done = lis, make(chan struct{})
	if s.conns == nil {
		s.conns = map[*server]struct{}{}
	}
	s.mu.Unlock()
	defer close(s.done)
	var backoff time.Duration
	for {
		conn, err := lis.Accept()
		if ne, ok := err.(net.Error); ok && ne.Temporary() && !s.stopping.Load() {
			// Out of descriptors, say: wait, as net/http's server does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.stopping.Load() {
			s.mu.Unlock()
			if err != nil {
				return nil
			}
			conn.Close()
			continue
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		c := newServer(conn, s)
		s.conns[c] = struct{}{}
		s.serving.Add(1)
		s.mu.Unlock()
		go s.serve(c)
	}
}

// serve answers one connection until either end closes it.
func (s *Server) serve(c *server) {
	defer s.serving.Done()
	c.run(s.Handler)
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Stop closes the listener and every idle connection, lets requests
// being served finish for up to a second — each connection closes after
// its reply — then closes what is left and waits for the accept loop to
// return. A handler that outlives the grace finishes on its own against
// a closed connection. Stop is idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopping.Swap(true) {
		s.mu.Unlock()
		return
	}
	lis, done := s.lis, s.done
	for c := range s.conns {
		if c.state.CompareAndSwap(idle, shut) {
			c.conn.Close()
		}
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	served := make(chan struct{})
	go func() {
		s.serving.Wait()
		close(served)
	}()
	grace := time.NewTimer(stopGrace)
	select {
	case <-served:
	case <-grace.C:
	}
	grace.Stop()
	s.mu.Lock()
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	if done != nil {
		<-done
	}
}
