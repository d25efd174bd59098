package bench

import "hotc/internal/stack"

type EnvOptions = stack.Options

func env(consts *int) EnvOptions { return EnvOptions{Constants: consts} }
