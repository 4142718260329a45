val shared : int
