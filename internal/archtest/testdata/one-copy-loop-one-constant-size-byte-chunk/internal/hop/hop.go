package hop

import "sync"

const BufSize = 128 << 10

var bufPool = sync.Pool{New: func() any { b := make([]byte, BufSize); return &b }}
