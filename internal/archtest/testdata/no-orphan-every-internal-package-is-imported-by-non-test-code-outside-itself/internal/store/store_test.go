package store

import "testing"

func TestPut(t *testing.T) { New().Put("k", "v") }
