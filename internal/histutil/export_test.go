package histutil

// Folds returns the folds registered on r, so tests outside the package can
// check the folds a predictor registers.
func (r *Reg) Folds() []*Fold { return r.folds }

// RandomStream is randomStream, for tests outside the package.
var RandomStream = randomStream
