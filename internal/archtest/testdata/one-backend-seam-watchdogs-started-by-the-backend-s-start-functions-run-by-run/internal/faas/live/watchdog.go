package live

import "hotc/internal/prefork"

type socketBackend struct{ hooks prefork.Hooks }

func (b *socketBackend) start() (*prefork.Watchdog, error) { return prefork.Start(&b.hooks) }

type inlineBackend struct{}

func (b *inlineBackend) start() (*prefork.Watchdog, error) { return prefork.Inline(), nil }

type Function struct {
	Handler func([]byte) ([]byte, error)
	Stream  func(r, w any) error
}

type Gateway struct{}

func (g *Gateway) run(r, w any, fn Function) error {
	if fn.Stream != nil {
		return fn.Stream(r, w)
	}
	_, err := fn.Handler(nil)
	return err
}

// serve is a second runner: the in-process backend's own copy.
func (b *inlineBackend) serve(r, w any, fn Function) error {
	return fn.Stream(r, w)
}
