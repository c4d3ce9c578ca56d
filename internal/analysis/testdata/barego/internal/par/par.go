// Package par stands in for the one package allowed to start goroutines:
// its go statement is clean.
package par

import "sync"

func For(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
