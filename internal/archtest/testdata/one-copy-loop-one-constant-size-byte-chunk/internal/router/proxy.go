package router

import (
	"io"
	"net/http"
)

// A replay buffer sized by the request is no copy chunk.
func replay(r *http.Request) ([]byte, error) {
	b := make([]byte, r.ContentLength)
	_, err := io.ReadFull(r.Body, b)
	return b, err
}
