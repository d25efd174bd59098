package config

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseCommand checks the command parser never panics, and that
// anything it accepts normalises stably: parsing, marshalling to a
// config file and re-parsing preserves the canonical key.
func FuzzParseCommand(f *testing.F) {
	f.Add("alpine")
	f.Add("--net host python:3.8 app.py")
	f.Add("-e A=1 -e B=2 -v /h:/c -m 512m --cpu-shares 2 img cmd arg")
	f.Add("--uts=host --ipc container:x busybox")
	f.Add("-l k=v --entrypoint sh node:10")
	f.Add("--net")
	f.Add("-m lots alpine")
	f.Add("--bogus x alpine")

	f.Fuzz(func(t *testing.T, line string) {
		args := strings.Fields(line)
		rt, err := ParseCommand(args)
		if err != nil {
			return
		}
		key := rt.Key()
		if key == "" {
			t.Fatal("accepted command produced empty key")
		}
		// Round-trip through the config-file form.
		data, err := json.Marshal(rt)
		if err != nil {
			t.Fatalf("marshal of accepted runtime failed: %v", err)
		}
		back, err := ParseFile(data)
		if err != nil {
			t.Fatalf("re-parse of marshalled runtime failed: %v\n%s", err, data)
		}
		if back.Key() != key {
			t.Fatalf("round trip changed key:\n%s\n%s", key, back.Key())
		}
		// Relaxed key must coarsen the full key deterministically.
		if rt.Relaxed() != back.Relaxed() {
			t.Fatal("round trip changed relaxed key")
		}
	})
}

// FuzzParseFile checks the JSON config parser never panics and that
// accepted files normalise stably.
func FuzzParseFile(f *testing.F) {
	f.Add(`{"image":"alpine"}`)
	f.Add(`{"image":"python:3.8","network":"overlay","env":["A=1"]}`)
	f.Add(`{"image":"a","labels":{"k":"v"},"memory_mb":512}`)
	f.Add(`{}`)
	f.Add(`not json`)
	f.Add(`{"image":"a","bogus":1}`)

	f.Fuzz(func(t *testing.T, text string) {
		rt, err := ParseFile([]byte(text))
		if err != nil {
			return
		}
		if rt.Key() != rt.Normalize().Key() {
			t.Fatal("accepted file not normalisation-stable")
		}
		if err := rt.Validate(); err != nil {
			t.Fatalf("accepted file fails validation: %v", err)
		}
	})
}
