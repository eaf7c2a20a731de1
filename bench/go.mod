module netcache/bench

go 1.22

require netcache v0.0.0

replace netcache => ../
