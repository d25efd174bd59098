package live

import "net/http"

func (g *Gateway) proxy(req *http.Request) (*http.Response, error) {
	return g.client.Do(req)
}
