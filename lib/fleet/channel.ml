type 'a t = { mutex : Mutex.t; nonempty : Condition.t; q : 'a Queue.t }

let create () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    q = Queue.create ();
  }

let send t v =
  Mutex.lock t.mutex;
  Queue.push v t.q;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let recv t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.q do
    Condition.wait t.nonempty t.mutex
  done;
  let v = Queue.pop t.q in
  Mutex.unlock t.mutex;
  v

let try_recv t =
  Mutex.lock t.mutex;
  let v = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  Mutex.unlock t.mutex;
  v

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.q in
  Mutex.unlock t.mutex;
  n
