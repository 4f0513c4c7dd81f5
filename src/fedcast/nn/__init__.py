"""Neural forecasters: autodiff engine, architectures, training, serialization."""
