package container

// release recounts what setState already counts.
func (e *Engine) release() (idle int) {
	for _, c := range e.containers {
		if c.Idle() {
			idle++
		}
	}
	return idle
}
