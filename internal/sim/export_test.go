package sim

// Resumes returns how many times Run has handed control to a task over
// its resume channel: once per task start and once per Sync or Park that
// went through the scheduler.
func (e *Engine) Resumes() int { return e.resumes }
