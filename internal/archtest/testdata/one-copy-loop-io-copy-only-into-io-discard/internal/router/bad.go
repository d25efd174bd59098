package router

import (
	"io"
	"net/http"
)

func finish(w http.ResponseWriter, resp *http.Response, ok bool) {
	if !ok {
		io.Copy(io.Discard, resp.Body)
		return
	}
	io.Copy(w, resp.Body)
}
