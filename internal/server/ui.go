package server

import "net/http"

// A minimal built-in worker UI, served at GET /: a human worker can join
// the retainer pool from a browser, wait for work (the page polls
// /api/task, exactly like the paper's retainer tasks kept workers ready),
// and label records with one click per class. This is the counterpart of
// the MTurk ExternalQuestion iframe the paper's deployment used; any real
// frontend would replace it, but the server is fully usable without one.

// WorkerUI serves the built-in worker page (the fabric mounts it at GET /).
func WorkerUI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(workerPage))
}

const workerPage = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>CLAMShell worker</title>
<style>
  body { font-family: system-ui, sans-serif; max-width: 40rem; margin: 3rem auto; padding: 0 1rem; }
  #status { color: #666; margin: 1rem 0; }
  .record { border: 1px solid #ccc; border-radius: 6px; padding: 1rem; margin: 1rem 0; }
  .record .payload { font-size: 1.2rem; margin-bottom: .75rem; white-space: pre-wrap; }
  button { font-size: 1rem; padding: .4rem 1rem; margin-right: .5rem; cursor: pointer; }
  button.selected { background: #2563eb; color: white; }
  #submit { margin-top: 1rem; }
  #join-form input { font-size: 1rem; padding: .3rem; }
</style>
</head>
<body>
<h1>CLAMShell worker</h1>
<div id="join-form">
  <label>Name: <input id="name" value="worker"></label>
  <button onclick="join()">Join the pool</button>
</div>
<div id="status">Not in the pool.</div>
<div id="task"></div>
<script>
let workerId = null, current = null, labels = [];

async function join() {
  const name = document.getElementById('name').value || 'worker';
  const r = await fetch('/api/join', {method: 'POST',
    headers: {'Content-Type': 'application/json'},
    body: JSON.stringify({name})});
  const body = await r.json();
  workerId = body.worker_id;
  document.getElementById('join-form').style.display = 'none';
  setStatus('In the pool as worker ' + workerId + '. Waiting for work…');
  setInterval(heartbeat, 30000);
  poll();
}

function setStatus(msg) { document.getElementById('status').textContent = msg; }

async function heartbeat() {
  if (workerId === null) return;
  await fetch('/api/heartbeat', {method: 'POST',
    headers: {'Content-Type': 'application/json'},
    body: JSON.stringify({worker_id: workerId})});
}

async function poll() {
  if (workerId === null) return;
  if (current !== null) { setTimeout(poll, 1000); return; }
  const r = await fetch('/api/task?worker_id=' + workerId);
  if (r.status === 200) {
    current = await r.json();
    labels = new Array(current.records.length).fill(-1);
    render();
    setStatus('Task ' + current.task_id + ': label every record, then submit.');
  } else if (r.status === 410) {
    setStatus('No more tasks available for you. Thanks for your work!');
    return;
  }
  setTimeout(poll, 1000);
}

function render() {
  const div = document.getElementById('task');
  div.innerHTML = '';
  current.records.forEach((rec, i) => {
    const box = document.createElement('div');
    box.className = 'record';
    const payload = document.createElement('div');
    payload.className = 'payload';
    payload.textContent = rec;
    box.appendChild(payload);
    for (let c = 0; c < current.classes; c++) {
      const b = document.createElement('button');
      b.textContent = 'class ' + c;
      b.onclick = () => { labels[i] = c; render(); };
      if (labels[i] === c) b.className = 'selected';
      box.appendChild(b);
    }
    div.appendChild(box);
  });
  const submit = document.createElement('button');
  submit.id = 'submit';
  submit.textContent = 'Submit labels';
  submit.disabled = labels.includes(-1);
  submit.onclick = submitLabels;
  div.appendChild(submit);
}

async function submitLabels() {
  const r = await fetch('/api/submit', {method: 'POST',
    headers: {'Content-Type': 'application/json'},
    body: JSON.stringify({worker_id: workerId, task_id: current.task_id, labels})});
  const body = await r.json();
  setStatus(body.terminated
    ? 'That task was finished by a faster worker — you are still paid. Waiting…'
    : 'Submitted. Waiting for the next task…');
  current = null;
  document.getElementById('task').innerHTML = '';
}
</script>
</body>
</html>
`
