package stack

// Options' Constants is written through bench's alias, which the row
// accepts; Trace, behind the same alias, nothing writes.
type Options struct {
	Constants *int
	Trace     bool
}
