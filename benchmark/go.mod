module ajaxcrawl/benchmark

go 1.23

require ajaxcrawl v0.0.0

replace ajaxcrawl => ../
