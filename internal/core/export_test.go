package core

// UseFromScratchRedaction switches a new engine to the from-scratch
// redactor the incremental one must agree with: the same synchronous,
// indexed pass, recomputed over the whole eligible set every cycle.
func UseFromScratchRedaction(e *Engine) {
	e.redact.plan, e.redact.live = nil, nil
}
