package prefork

import "net"

func (w *Watchdog) serve(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		go w.handle(conn)
	}
}
