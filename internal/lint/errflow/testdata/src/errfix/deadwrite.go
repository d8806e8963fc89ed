package errfix

import "errors"

// The overwritten-before-read rule's path shapes. A "want" marks a dead
// write; every other write here must stay silent.

func deadWriteStraightLine() error {
	err := errors.New("first") // want "overwritten at line 10 "
	err = errors.New("second")
	return err
}

func writeReadBetweenIsLive() error {
	err := errors.New("first")
	if err != nil {
		return err
	}
	err = errors.New("second")
	return err
}

func loopSelfOverwriteIsLive(n int) error {
	var err error
	for i := 0; i < n; i++ {
		err = errors.New("x")
		if err == nil {
			break
		}
	}
	return err
}

func branchOverwriteOnOnePathIsLive(x bool) error {
	err := errors.New("first")
	if x {
		err = errors.New("second")
	}
	return err
}

func capturedVarIsSkipped() error {
	var err error
	g := func() { err = errors.New("inner") }
	err = errors.New("outer")
	g()
	return err
}

func unreachableWriteIsSkipped(n int) error {
	for {
		if n > 0 {
			return nil
		}
	}
	err := errors.New("first")
	err = errors.New("second")
	return err
}

func sink(*error) {}

func addressTakenIsSkipped() error {
	err := errors.New("first")
	sink(&err)
	err = errors.New("second")
	return err
}

func bothBranchesRewrite(x bool) error {
	err := errors.New("first") // want "overwritten at line 73 "
	if x {
		err = errors.New("then")
	} else {
		err = errors.New("else")
	}
	return err
}

func writeInIfThenRewrite(x bool) error {
	var err error
	if x {
		err = errors.New("first") // want "overwritten at line 85 "
	}
	err = errors.New("second")
	return err
}

func switchWithDefaultRewrites(n int) error {
	err := errors.New("first") // want "overwritten at line 93 "
	switch n {
	case 0:
		err = errors.New("zero")
	case 1:
		err = errors.New("one")
	default:
		err = errors.New("other")
	}
	return err
}

func earlyReturnKeepsWriteLive(x bool) error {
	err := errors.New("first")
	if x {
		return nil
	}
	err = errors.New("second")
	return err
}
