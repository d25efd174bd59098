package container

type Engine struct{ containers map[int]*Container }

func (e *Engine) Live() (n int) {
	for range e.containers {
		n++
	}
	return n
}
