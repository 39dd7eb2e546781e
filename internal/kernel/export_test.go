package kernel

// PendingExtents reports how many of ino's appended extents have not been
// folded into Data yet.
func PendingExtents(ino *Inode) int { return len(ino.ext) }
