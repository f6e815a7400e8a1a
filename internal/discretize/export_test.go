package discretize

// Neighbors exposes the generator's grid-built neighbor sets to the
// external pruning tests.
func Neighbors(g *Generator) [][]int { return g.neighbors }
