// Package image models container images as stacks of content-addressed
// layers, a registry to pull from, and a per-host layer cache. The
// pull/unpack cost of the uncached layers is the image-download part of
// cold start that §III.B attributes most of the container start time
// to (Harter et al., Alibaba's findings).
//
// The package also contains a Dockerfile parser and a synthetic corpus
// generator used to reproduce the paper's Fig. 2 study of base-image
// popularity across GitHub projects.
package image

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Layer is one content-addressed image layer.
type Layer struct {
	// ID is the layer digest (any unique string in the simulation).
	ID string
	// SizeMB is the compressed layer size in megabytes.
	SizeMB float64
}

// Category classifies what a base image primarily provides, mirroring
// the Fig. 2(b) breakdown of OS, language and application images.
type Category int

const (
	// OS images provide only an operating system userland.
	OS Category = iota
	// Language images provide a language runtime on top of an OS.
	Language
	// Application images bundle a ready-to-run service.
	Application
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case OS:
		return "os"
	case Language:
		return "language"
	case Application:
		return "application"
	default:
		return fmt.Sprintf("image.Category(%d)", int(c))
	}
}

// Image is a named stack of layers.
type Image struct {
	// Name is the repository name, e.g. "python".
	Name string
	// Tag is the version tag, e.g. "3.8-alpine".
	Tag string
	// Layers is the ordered layer stack, base first.
	Layers []Layer
	// Category classifies the image for the Fig. 2(b) analysis.
	Category Category
}

// Ref returns the canonical "name:tag" reference.
func (im Image) Ref() string {
	tag := im.Tag
	if tag == "" {
		tag = "latest"
	}
	return im.Name + ":" + tag
}

// SizeMB is the total compressed size of all layers.
func (im Image) SizeMB() float64 {
	total := 0.0
	for _, l := range im.Layers {
		total += l.SizeMB
	}
	return total
}

// ParseRef splits an image reference into name and tag, defaulting the
// tag to "latest".
func ParseRef(ref string) (name, tag string) {
	name, tag, ok := strings.Cut(ref, ":")
	if !ok || tag == "" {
		tag = "latest"
	}
	return name, tag
}

// Registry is a catalog of images keyed by reference. It is safe for
// concurrent use.
type Registry struct {
	mu     sync.RWMutex
	images map[string]Image
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{images: make(map[string]Image)}
}

// Add registers an image, replacing any previous image with the same
// reference.
func (r *Registry) Add(im Image) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.images[im.Ref()] = im
}

// Lookup finds an image by reference ("name" or "name:tag").
func (r *Registry) Lookup(ref string) (Image, error) {
	name, tag := ParseRef(ref)
	r.mu.RLock()
	defer r.mu.RUnlock()
	im, ok := r.images[name+":"+tag]
	if !ok {
		return Image{}, fmt.Errorf("image: %q not found in registry", ref)
	}
	return im, nil
}

// Len reports the number of registered images.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.images)
}

// Refs returns all registered references, sorted.
func (r *Registry) Refs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	refs := make([]string, 0, len(r.images))
	for ref := range r.images {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	return refs
}

// Cache is a host-local layer store. Layers are shared between images
// (e.g. every python:* image shares the debian base layers), so
// pulling one image warms part of the next pull — the same effect the
// paper exploits by observing that serverless images are highly
// similar (Fig. 2). It is unbounded: a layer stays until Evict removes
// it.
type Cache struct {
	mu     sync.Mutex
	layers map[string]float64 // layer ID → size in MB
}

// NewCache returns an empty layer cache.
func NewCache() *Cache {
	return &Cache{layers: make(map[string]float64)}
}

// MissingMB returns the total size of the image's layers that are not
// cached locally: the amount that a pull must download.
func (c *Cache) MissingMB(im Image) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, l := range im.Layers {
		if _, ok := c.layers[l.ID]; !ok {
			total += l.SizeMB
		}
	}
	return total
}

// Admit records the image's layers as cached, returning the number of
// megabytes that were newly admitted.
func (c *Cache) Admit(im Image) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0.0
	for _, l := range im.Layers {
		if _, ok := c.layers[l.ID]; !ok {
			c.layers[l.ID] = l.SizeMB
			added += l.SizeMB
		}
	}
	return added
}

// SizeMB reports the total cached bytes.
func (c *Cache) SizeMB() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, mb := range c.layers {
		total += mb
	}
	return total
}

// Evict removes the layers of an image from the cache, returning the
// megabytes freed. Layers shared with other cached images are removed
// too — the cache does not reference-count; callers that need sharing
// semantics should simply not evict.
func (c *Cache) Evict(im Image) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := 0.0
	for _, l := range im.Layers {
		if mb, ok := c.layers[l.ID]; ok {
			freed += mb
			delete(c.layers, l.ID)
		}
	}
	return freed
}

// StandardCatalog returns a registry pre-populated with the base
// images that dominate the paper's Fig. 2 survey, with realistic layer
// sharing (language and application images stack on OS bases).
func StandardCatalog() *Registry {
	r := NewRegistry()
	// OS bases.
	alpineBase := Layer{ID: "sha-alpine-3.9", SizeMB: 5.5}
	debianBase := Layer{ID: "sha-debian-stretch", SizeMB: 101}
	ubuntuBase := Layer{ID: "sha-ubuntu-16.04", SizeMB: 119}
	busyboxBase := Layer{ID: "sha-busybox-1.30", SizeMB: 1.2}
	centosBase := Layer{ID: "sha-centos-7", SizeMB: 202}

	r.Add(Image{Name: "alpine", Tag: "3.9", Category: OS, Layers: []Layer{alpineBase}})
	r.Add(Image{Name: "debian", Tag: "stretch", Category: OS, Layers: []Layer{debianBase}})
	r.Add(Image{Name: "ubuntu", Tag: "16.04", Category: OS, Layers: []Layer{ubuntuBase}})
	r.Add(Image{Name: "busybox", Tag: "1.30", Category: OS, Layers: []Layer{busyboxBase}})
	r.Add(Image{Name: "centos", Tag: "7", Category: OS, Layers: []Layer{centosBase}})

	// Language runtimes on shared bases.
	r.Add(Image{Name: "python", Tag: "3.8", Category: Language, Layers: []Layer{
		debianBase, {ID: "sha-python-3.8-rt", SizeMB: 48}, {ID: "sha-python-3.8-pip", SizeMB: 9},
	}})
	r.Add(Image{Name: "python", Tag: "3.8-alpine", Category: Language, Layers: []Layer{
		alpineBase, {ID: "sha-python-3.8a-rt", SizeMB: 28},
	}})
	r.Add(Image{Name: "node", Tag: "10", Category: Language, Layers: []Layer{
		debianBase, {ID: "sha-node-10-rt", SizeMB: 67},
	}})
	r.Add(Image{Name: "golang", Tag: "1.12", Category: Language, Layers: []Layer{
		debianBase, {ID: "sha-go-1.12-rt", SizeMB: 260},
	}})
	r.Add(Image{Name: "openjdk", Tag: "8", Category: Language, Layers: []Layer{
		debianBase, {ID: "sha-jdk-8-rt", SizeMB: 205},
	}})
	r.Add(Image{Name: "ruby", Tag: "2.6", Category: Language, Layers: []Layer{
		debianBase, {ID: "sha-ruby-2.6-rt", SizeMB: 61},
	}})

	// Application images.
	r.Add(Image{Name: "nginx", Tag: "1.15", Category: Application, Layers: []Layer{
		debianBase, {ID: "sha-nginx-1.15", SizeMB: 16},
	}})
	r.Add(Image{Name: "redis", Tag: "5", Category: Application, Layers: []Layer{
		debianBase, {ID: "sha-redis-5", SizeMB: 13},
	}})
	r.Add(Image{Name: "mysql", Tag: "5.7", Category: Application, Layers: []Layer{
		debianBase, {ID: "sha-mysql-5.7", SizeMB: 137},
	}})
	r.Add(Image{Name: "postgres", Tag: "11", Category: Application, Layers: []Layer{
		debianBase, {ID: "sha-postgres-11", SizeMB: 105},
	}})
	r.Add(Image{Name: "cassandra", Tag: "3.11", Category: Application, Layers: []Layer{
		debianBase, {ID: "sha-jdk-8-rt", SizeMB: 205}, {ID: "sha-cassandra-3.11", SizeMB: 82},
	}})
	r.Add(Image{Name: "tensorflow", Tag: "1.13", Category: Application, Layers: []Layer{
		ubuntuBase, {ID: "sha-python-3.8-rt", SizeMB: 48}, {ID: "sha-tf-1.13", SizeMB: 412},
	}})
	r.Add(Image{Name: "mongo", Tag: "4", Category: Application, Layers: []Layer{
		ubuntuBase, {ID: "sha-mongo-4", SizeMB: 120},
	}})
	r.Add(Image{Name: "httpd", Tag: "2.4", Category: Application, Layers: []Layer{
		debianBase, {ID: "sha-httpd-2.4", SizeMB: 24},
	}})
	return r
}
