package router

import (
	"context"
	"net/http"
)

type Router struct{ client *http.Client }

func (rt *Router) drain(ctx context.Context, u string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u+"/system/drain", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}
