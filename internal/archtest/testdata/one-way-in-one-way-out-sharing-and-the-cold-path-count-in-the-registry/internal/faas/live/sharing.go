package live

import "sync/atomic"

type shareState struct{ granted atomic.Uint64 }
