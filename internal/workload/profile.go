package workload

import (
	"fmt"
	"strings"
	"time"
)

// Profile is the JSON form of an App, so users can define their own
// application cost profiles: a scenario function's "appProfile" (see
// scenarios/custom-profile.json) is one, e.g.
//
//	{"name":"my-api","image":"python:3.8","language":"python",
//	 "appInitMs":300,"execMs":45,"cpuPct":6,"memMB":80}
type Profile struct {
	// Name identifies the app.
	Name string `json:"name"`
	// Image is the catalog image reference it runs in.
	Image string `json:"image"`
	// Language selects the runtime-init cost: go|python|node|java.
	Language string `json:"language"`
	// AppInitMs is business-logic initialisation in milliseconds.
	AppInitMs float64 `json:"appInitMs"`
	// ExecMs is warm execution time per request in milliseconds.
	ExecMs float64 `json:"execMs"`
	// CPUPct and MemMB are steady-state resource usage during
	// execution.
	CPUPct float64 `json:"cpuPct"`
	MemMB  float64 `json:"memMB"`
}

// ParseLanguage maps a language name to its Language value.
func ParseLanguage(s string) (Language, error) {
	for _, l := range Languages() {
		if l.String() == strings.ToLower(strings.TrimSpace(s)) {
			return l, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown language %q (want go/python/node/java)", s)
}

// App converts the profile to an App.
func (p Profile) App() (App, error) {
	lang, err := ParseLanguage(p.Language)
	if err != nil {
		return App{}, err
	}
	app := App{
		Name:    strings.TrimSpace(p.Name),
		Image:   strings.TrimSpace(p.Image),
		Lang:    lang,
		AppInit: time.Duration(p.AppInitMs * float64(time.Millisecond)),
		Exec:    time.Duration(p.ExecMs * float64(time.Millisecond)),
		CPUPct:  p.CPUPct,
		MemMB:   p.MemMB,
	}
	if app.Image == "" {
		return App{}, fmt.Errorf("workload: profile %q needs an image", p.Name)
	}
	if p.CPUPct < 0 || p.MemMB < 0 {
		return App{}, fmt.Errorf("workload: profile %q has negative resources", p.Name)
	}
	if err := app.Validate(); err != nil {
		return App{}, err
	}
	return app, nil
}
