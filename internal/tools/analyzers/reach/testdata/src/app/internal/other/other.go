// Package other is reached from main; its in-package test uses the
// support fake.
package other

// Work is called from main.
func Work() int { return 4 }
