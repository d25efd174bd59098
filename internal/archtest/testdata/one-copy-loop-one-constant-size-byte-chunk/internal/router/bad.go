package router

const chunk = 32 << 10

func relay() []byte { return make([]byte, chunk) }
