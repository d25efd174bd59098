package stack

import (
	"hotc/internal/container"
	"hotc/internal/faas"
	"hotc/internal/host"
)

func New(o Options) *Stack {
	s := &Stack{}
	s.Engine = container.NewEngine(s.Sched)
	for range s.Registry.Refs() {
	}
	s.Host = host.New(s.Engine)
	s.Gateway = faas.NewGateway(s.Engine)
	return s
}
