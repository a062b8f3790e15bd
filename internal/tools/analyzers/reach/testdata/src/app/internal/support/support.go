// Package support is test support for other packages: a fake that
// cannot live in a _test.go file, because another package's tests use
// it.
package support

// Fake is referenced only from another package's test.
func Fake() *Recorder { return &Recorder{} }

// Recorder is the fake's type.
type Recorder struct{ n int }

// Record is called on a value in another package's test.
func (r *Recorder) Record() { r.n++ }

// Count is called only by this package's own test.
func (r *Recorder) Count() int { return r.n } // want `support.Recorder.Count is unreachable`
