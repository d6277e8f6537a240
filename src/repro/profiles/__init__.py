"""Context-sensitive profile data: traces, DCG, partial matching."""
