package router

import (
	"net/http"

	"hotc/internal/hop"
)

func finish(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	hop.Copy(w, resp.Body)
}
