package live

import "hotc/internal/prefork"

type socketBackend struct{ hooks prefork.Hooks }

func (b *socketBackend) start() (*prefork.Watchdog, error) { return prefork.Start(&b.hooks) }

type inlineBackend struct{}

func (b *inlineBackend) start() (*prefork.Watchdog, error) { return prefork.Inline(), nil }
