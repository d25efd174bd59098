package live

import "time"

func builtinFunction(ms int) { time.Sleep(time.Duration(ms) * time.Millisecond) }
