package workload

// CompiledRegistryImages reports how many registry entries exist and
// how many of their shared images are compiled: what the process
// retains beyond its live walkers.
func CompiledRegistryImages() (registered, compiled int) {
	for _, e := range images {
		if e.img != nil {
			compiled++
		}
	}
	return len(images), compiled
}

// WalksRegistryImage reports whether w walks a registry entry's shared
// image.
func (w *Walker) WalksRegistryImage() bool {
	e, ok := images[w.spec.Name]
	return ok && e.img != nil && e.img == w.img
}
