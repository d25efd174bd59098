package router

type Config struct{ Nodes []string }
