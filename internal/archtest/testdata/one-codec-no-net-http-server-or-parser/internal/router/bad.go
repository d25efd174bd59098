package router

import (
	"net"
	"net/http"
)

func (rt *Router) StartOn(lis net.Listener) error {
	return (&http.Server{Handler: rt.Routes()}).Serve(lis)
}
