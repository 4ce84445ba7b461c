include Xutil.Splitmix
