package image

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRefDefaultsLatest(t *testing.T) {
	im := Image{Name: "alpine"}
	if im.Ref() != "alpine:latest" {
		t.Fatalf("Ref = %q", im.Ref())
	}
	im.Tag = "3.9"
	if im.Ref() != "alpine:3.9" {
		t.Fatalf("Ref = %q", im.Ref())
	}
}

func TestParseRef(t *testing.T) {
	for _, tc := range []struct{ in, name, tag string }{
		{"python:3.8", "python", "3.8"},
		{"python", "python", "latest"},
		{"python:", "python", "latest"},
	} {
		n, tag := ParseRef(tc.in)
		if n != tc.name || tag != tc.tag {
			t.Errorf("ParseRef(%q) = %q/%q", tc.in, n, tag)
		}
	}
}

func TestSizeMB(t *testing.T) {
	im := Image{Layers: []Layer{{ID: "a", SizeMB: 10}, {ID: "b", SizeMB: 5}}}
	if im.SizeMB() != 15 {
		t.Fatalf("SizeMB = %v", im.SizeMB())
	}
}

func TestRegistryLookup(t *testing.T) {
	r := NewRegistry()
	r.Add(Image{Name: "alpine", Tag: "3.9"})
	if _, err := r.Lookup("alpine:3.9"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("alpine:9.9"); err == nil {
		t.Fatal("missing tag found")
	}
	if _, err := r.Lookup("nothere"); err == nil {
		t.Fatal("missing image found")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRegistryRefsSorted(t *testing.T) {
	r := NewRegistry()
	r.Add(Image{Name: "zeta"})
	r.Add(Image{Name: "alpha"})
	refs := r.Refs()
	if len(refs) != 2 || refs[0] != "alpha:latest" {
		t.Fatalf("Refs = %v", refs)
	}
}

func TestCachePullAccounting(t *testing.T) {
	c := NewCache()
	im := Image{Name: "x", Layers: []Layer{{ID: "a", SizeMB: 10}, {ID: "b", SizeMB: 20}}}
	if got := c.MissingMB(im); got != 30 {
		t.Fatalf("MissingMB cold = %v", got)
	}
	if added := c.Admit(im); added != 30 {
		t.Fatalf("Admit = %v", added)
	}
	if c.MissingMB(im) != 0 {
		t.Fatal("image not contained after admit")
	}
	if got := c.MissingMB(im); got != 0 {
		t.Fatalf("MissingMB warm = %v", got)
	}
	if again := c.Admit(im); again != 0 {
		t.Fatalf("re-Admit added %v", again)
	}
	if c.SizeMB() != 30 {
		t.Fatalf("SizeMB = %v", c.SizeMB())
	}
}

func TestCacheLayerSharing(t *testing.T) {
	c := NewCache()
	base := Layer{ID: "shared-base", SizeMB: 100}
	a := Image{Name: "a", Layers: []Layer{base, {ID: "a-top", SizeMB: 10}}}
	b := Image{Name: "b", Layers: []Layer{base, {ID: "b-top", SizeMB: 20}}}
	c.Admit(a)
	// Pulling b after a only needs b's unique layer.
	if got := c.MissingMB(b); got != 20 {
		t.Fatalf("MissingMB with shared base = %v, want 20", got)
	}
}

func TestCacheEvict(t *testing.T) {
	c := NewCache()
	im := Image{Name: "x", Layers: []Layer{{ID: "a", SizeMB: 10}}}
	c.Admit(im)
	if freed := c.Evict(im); freed != 10 {
		t.Fatalf("Evict freed %v", freed)
	}
	if c.MissingMB(im) == 0 {
		t.Fatal("still contained after evict")
	}
	if freed := c.Evict(im); freed != 0 {
		t.Fatalf("double Evict freed %v", freed)
	}
}

func TestStandardCatalog(t *testing.T) {
	r := StandardCatalog()
	if r.Len() < 15 {
		t.Fatalf("catalog too small: %d", r.Len())
	}
	tf, err := r.Lookup("tensorflow:1.13")
	if err != nil {
		t.Fatal(err)
	}
	if tf.Category != Application {
		t.Fatalf("tensorflow category = %v", tf.Category)
	}
	if tf.SizeMB() < 400 {
		t.Fatalf("tensorflow image suspiciously small: %v MB", tf.SizeMB())
	}
	// Layer sharing across catalog images: pulling python warms part
	// of tensorflow (both carry the python runtime layer).
	py, err := r.Lookup("python:3.8")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.Admit(py)
	if c.MissingMB(tf) >= tf.SizeMB() {
		t.Fatal("catalog images do not share layers")
	}
}

func TestCategoryString(t *testing.T) {
	if OS.String() != "os" || Language.String() != "language" || Application.String() != "application" {
		t.Fatal("category names wrong")
	}
	if Category(9).String() == "" {
		t.Fatal("unknown category should still render")
	}
}

// Property: cache conservation — MissingMB + cached part == image size,
// and Admit returns exactly the previous MissingMB.
func TestPropertyCacheConservation(t *testing.T) {
	f := func(sizes []uint8, split uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		var layers []Layer
		for i, s := range sizes {
			layers = append(layers, Layer{ID: string(rune('a' + i%26)), SizeMB: float64(s%100) + 1})
		}
		// Dedup layer IDs by keeping the first occurrence.
		seen := map[string]bool{}
		var uniq []Layer
		for _, l := range layers {
			if !seen[l.ID] {
				seen[l.ID] = true
				uniq = append(uniq, l)
			}
		}
		im := Image{Name: "p", Layers: uniq}
		pre := Image{Name: "q", Layers: uniq[:int(split)%(len(uniq)+1)]}
		c := NewCache()
		c.Admit(pre)
		missing := c.MissingMB(im)
		added := c.Admit(im)
		return math.Abs(missing-added) < 1e-9 && c.MissingMB(im) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent Admit/MissingMB/SizeMB from many goroutines over
// overlapping images: the live gateway admits on every cold boot, so
// the cache is on a concurrent path. Run under -race; the invariant is
// that the total added MB across all admitters equals each layer paid
// exactly once.
func TestCacheConcurrentAdmit(t *testing.T) {
	c := NewCache()
	base := Layer{ID: "base", SizeMB: 100}
	images := make([]Image, 8)
	for i := range images {
		images[i] = Image{Name: fmt.Sprintf("im%d", i), Layers: []Layer{
			base, {ID: fmt.Sprintf("own%d", i), SizeMB: 10},
		}}
	}
	var wg sync.WaitGroup
	var totalAdded int64 // MB, integral by construction
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				im := images[(w+j)%len(images)]
				c.MissingMB(im)
				atomic.AddInt64(&totalAdded, int64(c.Admit(im)))
				c.SizeMB()
			}
		}(w)
	}
	wg.Wait()
	// Every layer was admitted by exactly one call: the shared base
	// once, each per-image layer once.
	want := int64(100 + 10*len(images))
	if totalAdded != want {
		t.Fatalf("concurrent admits paid %d MB total, want %d (layers double-paid or lost)", totalAdded, want)
	}
	for _, im := range images {
		if c.MissingMB(im) != 0 {
			t.Fatalf("image %s incomplete after concurrent admits", im.Name)
		}
	}
}
