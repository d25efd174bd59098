package faas

import s "sync"

type deployments struct {
	mu     s.RWMutex
	byName map[string]*Deployment
}
