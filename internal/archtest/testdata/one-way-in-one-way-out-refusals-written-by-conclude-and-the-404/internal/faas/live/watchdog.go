package live

import "net/http"

// The function's own replies are not the gateway's refusals.
func reply(w http.ResponseWriter, err error) { http.Error(w, err.Error(), 500) }
