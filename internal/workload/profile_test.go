package workload

import (
	"testing"
	"time"
)

// A profile becomes the App it describes: its language's runtime init
// plus its own app init, and its exec time.
func TestProfileApp(t *testing.T) {
	api, err := Profile{Name: " api ", Image: "python:3.8", Language: "python",
		AppInitMs: 300, ExecMs: 45, CPUPct: 6, MemMB: 80}.App()
	if err != nil {
		t.Fatal(err)
	}
	if api.Name != "api" || api.Image != "python:3.8" || api.Lang != Python || api.CPUPct != 6 || api.MemMB != 80 {
		t.Fatalf("api = %+v", api)
	}
	if api.AppInit != 300*time.Millisecond || api.Exec != 45*time.Millisecond {
		t.Fatalf("api durations = %v/%v", api.AppInit, api.Exec)
	}
	if api.InitCost() != Python.RuntimeInit()+300*time.Millisecond {
		t.Fatal("InitCost composition wrong")
	}
}

// Profile.App refuses what no App can run.
func TestProfileAppErrors(t *testing.T) {
	ok := Profile{Name: "x", Image: "a", Language: "go", ExecMs: 1}
	for name, mutate := range map[string]func(*Profile){
		"unknown language": func(p *Profile) { p.Language = "cobol" },
		"empty image":      func(p *Profile) { p.Image = " " },
		"zero exec":        func(p *Profile) { p.ExecMs = 0 },
		"negative cpu":     func(p *Profile) { p.CPUPct = -1 },
		"negative memory":  func(p *Profile) { p.MemMB = -1 },
	} {
		p := ok
		mutate(&p)
		if app, err := p.App(); err == nil {
			t.Errorf("%s: App() = %+v, want an error", name, app)
		}
	}
	if _, err := ok.App(); err != nil {
		t.Fatalf("the valid profile is refused: %v", err)
	}
}

func TestParseLanguage(t *testing.T) {
	l, err := ParseLanguage(" Java ")
	if err != nil || l != Java {
		t.Fatalf("ParseLanguage = %v/%v", l, err)
	}
	if _, err := ParseLanguage("fortran"); err == nil {
		t.Fatal("unknown language accepted")
	}
}
