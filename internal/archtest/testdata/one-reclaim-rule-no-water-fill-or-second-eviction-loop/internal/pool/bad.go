package pool

func (p *Pool) makeRoom() {}
