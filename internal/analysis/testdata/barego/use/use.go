// Package use seeds the barego golden cases: every go statement outside
// internal/par is flagged unless suppressed with a reason.
package use

import "vetsample/internal/par"

func work(i int) {}

func handRolledPool(n int) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() { // want "bare go statement"
			work(i)
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

func namedCall() {
	go work(1) // want "bare go statement"
}

func nested() func() {
	return func() {
		go work(2) // want "bare go statement"
	}
}

func acceptLoop(serve func() error, errc chan error) {
	//autoce:ignore barego -- fixture: a long-lived loop, not fan-out work
	go func() { errc <- serve() }()
}

// throughPar is the sanctioned shape: clean.
func throughPar(n int) {
	par.For(n, work)
}
