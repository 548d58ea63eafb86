"""Context-free grammars, genome decoding, and program round-tripping."""
