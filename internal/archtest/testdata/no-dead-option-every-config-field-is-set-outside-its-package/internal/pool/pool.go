package pool

type Options struct{ MaxLive int }
