package live

import "hotc/internal/admission"

type PoolConfig struct{ MaxInFlight int }

func (c PoolConfig) queue() admission.Config {
	return admission.Config{MaxInFlight: c.MaxInFlight}
}
