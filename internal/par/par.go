// Package par runs bounded pools of independent jobs with a deterministic
// merge contract. The experiment harness's sweep cells (platform × rate
// grids, policy sweeps) are embarrassingly parallel but must produce
// byte-identical results at any worker count, so the pattern is always
// the same: every job writes into an index-addressed slot its caller
// owns, the caller consumes the slots in index order, and the error
// reported is the lowest-index one — never whichever finished first.
package par

import "sync"

// For evaluates fn(0), ..., fn(n-1) on up to workers goroutines and
// returns the lowest-index error (nil if none). workers <= 1 runs every
// job on the caller's goroutine in index order. fn must confine its side
// effects to state owned by its index; the completion order of jobs is
// unobservable through For's result.
func For(workers, n int, fn func(int) error) error {
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = fn(i)
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
