package live

import "net/http"

func (g *Gateway) admit(w http.ResponseWriter) bool {
	http.Error(w, "busy", http.StatusTooManyRequests)
	return false
}
